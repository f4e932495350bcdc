//! The acceptance gate for the parallel runner: an experiment's stdout
//! and metrics snapshot are byte-identical regardless of `--jobs`.

use std::process::Command;

fn run(args: &[&str]) -> (Vec<u8>, String) {
    let bin = env!("CARGO_BIN_EXE_exp");
    let metrics = std::env::temp_dir().join(format!(
        "csaw_pdet_{}_{}.json",
        std::process::id(),
        args.join("_").replace(['-', '/'], "")
    ));
    let out = Command::new(bin)
        .args(args)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawn experiment binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap = std::fs::read_to_string(&metrics).expect("metrics snapshot written");
    let _ = std::fs::remove_file(&metrics);
    (out.stdout, snap)
}

#[test]
fn fig5a_output_is_byte_identical_across_job_counts() {
    let (serial_out, serial_snap) = run(&["fig5a", "--seed", "1", "--jobs", "1"]);
    for jobs in ["4", "8"] {
        let (par_out, par_snap) = run(&["fig5a", "--seed", "1", "--jobs", jobs]);
        assert_eq!(
            serial_out, par_out,
            "stdout differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial_snap, par_snap,
            "metrics snapshot differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn table5_output_is_byte_identical_across_job_counts() {
    let (serial_out, serial_snap) = run(&["table5", "--seed", "1", "--jobs", "1"]);
    let (par_out, par_snap) = run(&["table5", "--seed", "1", "--jobs", "16"]);
    assert_eq!(serial_out, par_out, "stdout differs at --jobs 16");
    assert_eq!(serial_snap, par_snap, "snapshot differs at --jobs 16");
}
