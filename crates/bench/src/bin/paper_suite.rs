//! Regenerates every figure and table of the paper in one pass, sharing the
//! trained systems between Fig. 4, Fig. 5, Table I and the energy report so
//! each dataset's models are trained exactly once.
//!
//! ```text
//! cargo run --release -p appeal-bench --bin paper_suite
//! APPEALNET_FIDELITY=smoke cargo run --release -p appeal-bench --bin paper_suite
//! ```

use appeal_bench::{elapsed_secs, harness_context, write_report};
use appeal_dataset::DatasetPreset;
use appeal_hw::SystemModel;
use appeal_models::ModelFamily;
use appealnet_core::experiments::{energy, fig4, fig5, table1, table2, PreparedExperiment};
use appealnet_core::loss::CloudMode;
use std::time::Instant;

fn main() {
    let ctx = harness_context();
    let start = Instant::now();
    eprintln!("[paper_suite] fidelity = {}", ctx.fidelity);

    // ------------------------------------------------------------------
    // White-box systems: MobileNet little + ResNet-like big, four datasets
    // (Fig. 5, Table I, energy report).
    // ------------------------------------------------------------------
    let mut fig5_text = String::new();
    let mut table1_text =
        String::from("Table I — overall computational cost under accuracy-improvement targets\n\n");
    let mut energy_text = String::from("Energy report — derived from Table I operating points\n\n");
    let hardware = SystemModel::typical();
    let mut max_saving: f64 = 0.0;

    for preset in DatasetPreset::all() {
        eprintln!(
            "[paper_suite] preparing white-box {} ({}) ...",
            preset.name(),
            elapsed_secs(start)
        );
        let prepared = PreparedExperiment::prepare(
            preset,
            ModelFamily::MobileNetLike,
            CloudMode::WhiteBox,
            &ctx,
        );
        eprintln!(
            "[paper_suite]   little={:.2}% appeal={:.2}% big={:.2}% ({})",
            prepared.little_accuracy * 100.0,
            prepared.appealnet_accuracy * 100.0,
            prepared.big_accuracy * 100.0,
            elapsed_secs(start)
        );
        fig5_text.push_str(&fig5::run(&prepared).render_text());
        fig5_text.push('\n');
        table1_text.push_str(&table1::run(&prepared).render_text());
        table1_text.push('\n');
        let energy_report = energy::run(&prepared, &hardware);
        if let Some(s) = energy_report.max_saving() {
            max_saving = max_saving.max(s);
        }
        energy_text.push_str(&energy_report.render_text());
        energy_text.push('\n');

        // Fig. 4 uses CIFAR-10; the paper's figure uses an EfficientNet
        // little network, prepared separately below, but we also record the
        // MobileNet histogram for completeness.
        if preset == DatasetPreset::Cifar10Like {
            let result = fig4::run(&prepared, 10);
            write_report("fig4_cifar10_mobilenet", &result.render_text());
        }
    }
    write_report("fig5_accuracy_vs_sr", &fig5_text);
    write_report("table1_cost", &table1_text);
    energy_text.push_str(&format!(
        "Maximum relative energy saving observed: {:.1}%\n",
        max_saving * 100.0
    ));
    write_report("energy_savings", &energy_text);

    // ------------------------------------------------------------------
    // Fig. 4: EfficientNet little network on CIFAR-10 (white-box), as in the paper.
    // ------------------------------------------------------------------
    eprintln!(
        "[paper_suite] preparing Fig. 4 (EfficientNet, CIFAR-10) ... ({})",
        elapsed_secs(start)
    );
    let prepared = PreparedExperiment::prepare(
        DatasetPreset::Cifar10Like,
        ModelFamily::EfficientNetLike,
        CloudMode::WhiteBox,
        &ctx,
    );
    write_report("fig4_histogram", &fig4::run(&prepared, 10).render_text());

    // ------------------------------------------------------------------
    // Table II: black-box (oracle cloud) on CIFAR-10 for all three families.
    // ------------------------------------------------------------------
    let mut table2_text =
        String::from("Table II — appealing rate of black-box AppealNet on CIFAR-10\n\n");
    for family in ModelFamily::little_families() {
        eprintln!(
            "[paper_suite] preparing black-box {} ({}) ...",
            family.name(),
            elapsed_secs(start)
        );
        let prepared = PreparedExperiment::prepare(
            DatasetPreset::Cifar10Like,
            family,
            CloudMode::BlackBox,
            &ctx,
        );
        table2_text.push_str(&table2::run(&prepared).render_text());
        table2_text.push('\n');
    }
    write_report("table2_blackbox", &table2_text);

    eprintln!("[paper_suite] done in {}", elapsed_secs(start));
}
