//! Command-line contract of the `train_driver` binary: a flag that could
//! never take effect — including a fault or stop at a sweep a resume has
//! already passed — exits 2 before any training starts, instead of
//! degrading into a plain full run.

use std::process::{Command, Output};

fn driver(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_train_driver"))
        .args(args)
        .output()
        .expect("spawn train_driver")
}

#[test]
fn fault_at_a_sweep_that_is_never_checkpointed_exits_2() {
    let dir = std::env::temp_dir().join(format!("train_driver_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.slda");
    let ck = ck.to_str().unwrap();
    // Checkpoints fire at sweeps 6 and 12: 7 is off the grid, 18 is past
    // the end, and 0 is before the first sweep.
    for spec in ["torn@7", "torn@18", "crash@0"] {
        let out = driver(&[
            "--sweeps",
            "12",
            "--shards",
            "2",
            "--checkpoint-every",
            "6",
            "--checkpoint-path",
            ck,
            "--fault",
            spec,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--fault {spec}: {stderr}");
        assert!(
            stderr.contains("never a checkpoint boundary"),
            "--fault {spec}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("final digest"),
            "--fault {spec} must not train"
        );
    }
    // Without --checkpoint-every no checkpoint fires at all.
    let out = driver(&["--sweeps", "12", "--fault", "torn@6"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing written"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_or_stop_at_a_sweep_the_resume_already_passed_exits_2() {
    let dir = std::env::temp_dir().join(format!("train_driver_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.slda");
    let ck = ck.to_str().unwrap();
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--sweeps",
            "24",
            "--checkpoint-every",
            "6",
            "--checkpoint-path",
            ck,
        ];
        args.extend_from_slice(extra);
        driver(&args)
    };
    let generations = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let killed = run(&["--stop-after", "12"]);
    assert_eq!(killed.status.code(), Some(0));
    let written = generations();
    assert_eq!(written, ["ck.g000006.slda", "ck.g000012.slda"]);
    // The resume starts at sweep 12, so neither a fault at 6 nor a stop
    // at 12 could ever fire: both must refuse before training.
    for extra in [&["--fault", "torn@6"][..], &["--stop-after", "12"]] {
        let out = run(&[&["--resume", "auto"][..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("never a checkpoint boundary"),
            "{extra:?}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("final digest"),
            "{extra:?} must not train"
        );
        assert_eq!(generations(), written, "{extra:?} wrote a generation");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_exit_2() {
    // `--train` and the scale flags select modes this binary does not
    // have: it only trains (or validates a telemetry file).
    for args in [
        &["--train"][..],
        &["--smoke"],
        &["--scale", "smoke"],
        &["--full"],
        &["--sweeps", "4", "--bogus"],
    ] {
        let out = driver(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_lists_only_the_accepted_flags() {
    let out = driver(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("usage: train_driver"));
    for flag in ["--shards", "--checkpoint-every", "--fault", "--telemetry"] {
        assert!(help.contains(flag), "missing {flag}");
    }
    for flag in ["--train", "--scale", "--smoke", "--full"] {
        assert!(!help.contains(flag), "lists {flag}");
    }
}

/// A format-v2 generation (the checkpoint rides beside a φ section),
/// written by `--stop-after 12` of the run below before the format moved
/// to v3, must keep resuming to the uninterrupted run's digest.
#[test]
fn v2_generation_archive_resumes_to_the_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("train_driver_v2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let archive = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/generation_v2.slda");
    std::fs::copy(archive, dir.join("ck.g000012.slda")).unwrap();
    let ck = dir.join("ck.slda");
    let out = driver(&[
        "--sweeps",
        "24",
        "--shards",
        "2",
        "--checkpoint-every",
        "6",
        "--checkpoint-path",
        ck.to_str().unwrap(),
        "--resume",
        "auto",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("resuming from ")
            && l.contains("ck.g000012.slda")
            && l.contains(" at sweep 12")),
        "{stdout}"
    );
    assert!(
        stdout.contains("final digest: 52dea8919f5bc136"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
