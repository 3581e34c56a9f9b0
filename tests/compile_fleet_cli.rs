//! The `compile_fleet` binary's `--min-hit-rate` gate end to end: a
//! threshold outside `[0, 1]` is refused while the arguments are parsed,
//! before any sweep runs. NaN is the case that matters: every comparison
//! with it is false, so a NaN threshold would pass every run.

use std::process::{Command, Output};

fn compile_fleet(min_hit_rate: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_compile_fleet"))
        .args(["--nodes", "1", "--jobs", "1"])
        .args(["--min-hit-rate", min_hit_rate])
        .output()
        .expect("run compile_fleet")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn min_hit_rate_outside_zero_to_one_is_refused_before_any_sweep() {
    for bad in ["nan", "NaN", "-0.1", "1.5", "inf", "-3"] {
        let out = compile_fleet(bad);
        assert!(
            !out.status.success(),
            "--min-hit-rate {bad} was accepted: {}",
            text(&out.stdout)
        );
        assert!(
            text(&out.stderr).contains("--min-hit-rate needs a number in 0..1"),
            "--min-hit-rate {bad}: unexpected error {:?}",
            text(&out.stderr)
        );
        assert!(
            out.stdout.is_empty(),
            "--min-hit-rate {bad} ran a sweep before refusing: {}",
            text(&out.stdout)
        );
    }
    // the bounds themselves are thresholds: 0 passes a cold run
    let out = compile_fleet("0");
    assert!(
        out.status.success(),
        "--min-hit-rate 0 failed: {}",
        text(&out.stderr)
    );
    assert!(
        text(&out.stdout).contains("fleet digest:"),
        "--min-hit-rate 0 ran no sweep: {}",
        text(&out.stdout)
    );
}
