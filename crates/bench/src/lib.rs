//! # appeal-bench
//!
//! Benchmark and experiment harnesses that regenerate every table and figure
//! of the AppealNet paper's evaluation section.
//!
//! Two kinds of targets live in this crate:
//!
//! * **Binaries** (`src/bin/*.rs`) — run the full experiment pipelines
//!   (dataset generation, training, threshold tuning) and print the same
//!   rows/series the paper reports. `cargo run --release -p appeal-bench
//!   --bin paper_suite` regenerates everything in one pass and writes text
//!   reports into the repository's `reports/` directory.
//! * **Criterion benches** (`benches/*.rs`) — micro-benchmarks of the hot
//!   paths (inference latency, score computation, sweeps, threshold tuning,
//!   joint-loss evaluation) at smoke scale so `cargo bench --workspace`
//!   completes quickly.
//!
//! The experiment fidelity of the binaries can be overridden with the
//! `APPEALNET_FIDELITY` environment variable (`smoke` or `paper`).

use appeal_dataset::Fidelity;
use appealnet_core::experiments::ExperimentContext;
use std::fs;
use std::path::PathBuf;

/// Parses an `APPEALNET_FIDELITY` value: unset means `paper`; otherwise the
/// value must be `smoke` or `paper` (any case). Any other value is an error
/// naming it, so a typo cannot silently select the slow paper run.
pub fn parse_fidelity(value: Option<&str>) -> Result<Fidelity, String> {
    match value {
        None => Ok(Fidelity::Paper),
        Some(v) if v.eq_ignore_ascii_case("paper") => Ok(Fidelity::Paper),
        Some(v) if v.eq_ignore_ascii_case("smoke") => Ok(Fidelity::Smoke),
        Some(v) => Err(format!(
            "APPEALNET_FIDELITY={v:?} is not a fidelity; use `smoke` or `paper`"
        )),
    }
}

/// Reads the experiment fidelity from `APPEALNET_FIDELITY` (default: `paper`).
/// Exits the process with status 2 on an unrecognized value.
pub fn fidelity_from_env() -> Fidelity {
    let value = std::env::var_os("APPEALNET_FIDELITY");
    let value = value.as_ref().map(|v| v.to_string_lossy());
    parse_fidelity(value.as_deref()).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    })
}

/// The experiment context used by all harness binaries.
pub fn harness_context() -> ExperimentContext {
    ExperimentContext::new(fidelity_from_env(), 2021)
}

/// Directory where harness binaries write their text reports.
pub fn report_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("reports");
    fs::create_dir_all(&dir).expect("failed to create reports directory");
    dir
}

/// Writes a report to `reports/<name>.txt` and echoes it to stdout.
pub fn write_report(name: &str, text: &str) {
    println!("{text}");
    let path = report_dir().join(format!("{name}.txt"));
    if let Err(err) = fs::write(&path, text) {
        eprintln!("warning: failed to write {}: {err}", path.display());
    } else {
        eprintln!("[report written to {}]", path.display());
    }
}

/// Seconds elapsed since `start`, formatted for progress logs.
pub fn elapsed_secs(start: std::time::Instant) -> String {
    format!("{:.1}s", start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_env_parsing_defaults_to_paper() {
        // The env var is not set in the test environment.
        if std::env::var("APPEALNET_FIDELITY").is_err() {
            assert_eq!(fidelity_from_env(), Fidelity::Paper);
        }
    }

    #[test]
    fn parse_fidelity_accepts_unset_smoke_and_paper() {
        assert_eq!(parse_fidelity(None), Ok(Fidelity::Paper));
        assert_eq!(parse_fidelity(Some("paper")), Ok(Fidelity::Paper));
        assert_eq!(parse_fidelity(Some("smoke")), Ok(Fidelity::Smoke));
        assert_eq!(parse_fidelity(Some("SMOKE")), Ok(Fidelity::Smoke));
    }

    #[test]
    fn parse_fidelity_rejects_unknown_values_by_name() {
        for bad in ["smok", "", "fast", " smoke"] {
            let err = parse_fidelity(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn context_uses_env_fidelity() {
        let ctx = harness_context();
        assert!(ctx.beta > 0.0);
    }

    #[test]
    fn report_dir_is_creatable() {
        let dir = report_dir();
        assert!(dir.exists());
    }
}
