//! CLI contract tests for `srclda-infer` and `srclda-served`: both flag
//! forms (`--flag value` and `--flag=value`) parse identically, unknown
//! flags exit 2 instead of silently running with defaults, and the daemon
//! binary boots, serves, and shuts down gracefully on SIGTERM.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

const INFER_BIN: &str = env!("CARGO_BIN_EXE_srclda-infer");
const SERVED_BIN: &str = env!("CARGO_BIN_EXE_srclda-served");
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/model_v1.slda"
);

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn infer_accepts_space_and_equals_forms_identically() {
    let space = run(
        INFER_BIN,
        &[
            "infer",
            FIXTURE,
            "--text",
            "pencil ruler pencil",
            "--iterations",
            "7",
            "--seed",
            "3",
            "--top",
            "2",
        ],
    );
    let equals = run(
        INFER_BIN,
        &[
            "infer",
            FIXTURE,
            "--text=pencil ruler pencil",
            "--iterations=7",
            "--seed=3",
            "--top=2",
        ],
    );
    assert_eq!(space.0, Some(0), "stderr: {}", space.2);
    assert_eq!(equals.0, Some(0), "stderr: {}", equals.2);
    assert_eq!(
        space.1, equals.1,
        "the two flag forms must score identically"
    );
    assert!(space.1.contains("tokens=3"), "stdout: {}", space.1);
}

#[test]
fn inspect_accepts_both_top_forms() {
    let space = run(INFER_BIN, &["inspect", FIXTURE, "--top", "2"]);
    let equals = run(INFER_BIN, &["inspect", FIXTURE, "--top=2"]);
    assert_eq!(space.0, Some(0), "stderr: {}", space.2);
    assert_eq!(space.1, equals.1);
}

#[test]
fn infer_rejects_unknown_flags_with_exit_2() {
    for args in [
        vec!["infer", FIXTURE, "--text", "pencil", "--bogus", "x"],
        vec!["infer", FIXTURE, "--text", "pencil", "--bogus=x"],
        vec!["infer", FIXTURE, "--text", "pencil", "--iteratoins", "7"],
        vec!["inspect", FIXTURE, "--workers", "2"], // known globally, not for inspect
        vec![
            "save", "--docs", "d", "--source", "s", "--out", "o", "--text", "x",
        ],
        vec!["infer", FIXTURE, "extra-positional", "--text", "pencil"],
        vec!["infer", FIXTURE, "--text"], // missing value
    ] {
        let (code, _, stderr) = run(INFER_BIN, &args);
        assert_eq!(
            code,
            Some(2),
            "args {args:?} should exit 2; stderr: {stderr}"
        );
        assert!(stderr.contains("error:"), "stderr should explain: {stderr}");
    }
}

#[test]
fn infer_text_value_may_look_like_a_flag() {
    // `--text "-h"` scores the literal string "-h"; it is not help.
    let (code, stdout, stderr) = run(INFER_BIN, &["infer", FIXTURE, "--text", "-h"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("tokens=0"), "stdout: {stdout}");
}

/// A reader that stops early (`srclda-infer … | head -1`) closes the pipe:
/// the CLI stops quietly with exit 0 instead of panicking on its next
/// write. 2,000 scored lines (about 169 KB) are more than a pipe holds, so
/// the writer is still writing when the read end closes.
#[test]
fn infer_stops_quietly_when_stdout_closes() {
    let dir = std::env::temp_dir().join(format!("srclda-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let batch = dir.join("batch.txt");
    std::fs::write(&batch, "pencil ruler eraser\n".repeat(2000)).expect("batch file");
    let mut child = Command::new(INFER_BIN)
        .args([
            "infer",
            FIXTURE,
            "--batch",
            batch.to_str().expect("utf-8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary launches");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("first line");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().expect("child exits");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("doc-0: tokens="), "first line: {first}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn served_rejects_unknown_flags_and_missing_models_with_exit_2() {
    for args in [
        vec!["--bogus"],
        vec!["--bogus=1"],
        vec!["--model", FIXTURE, "--wrokers", "2"],
        vec!["--model", FIXTURE, "stray-positional"],
        vec!["--model"], // missing value
        vec![],          // no model at all
        // Same file stem twice would silently hot-swap at startup.
        vec!["--model", FIXTURE, "--model", FIXTURE],
    ] {
        let (code, _, stderr) = run(SERVED_BIN, &args);
        assert_eq!(
            code,
            Some(2),
            "args {args:?} should exit 2; stderr: {stderr}"
        );
        assert!(stderr.contains("error:"), "stderr should explain: {stderr}");
    }
}

#[test]
fn served_help_documents_the_endpoints() {
    let (code, stdout, _) = run(SERVED_BIN, &["--help"]);
    assert_eq!(code, Some(0));
    for needle in [
        "/healthz",
        "/metrics",
        "/infer",
        "/reload",
        "--model",
        "--workers",
    ] {
        assert!(stdout.contains(needle), "help is missing {needle}");
    }
    let (code, _, stderr) = run(SERVED_BIN, &["--model", "/nonexistent.slda"]);
    assert_eq!(code, Some(1), "bad artifact is a runtime error, not usage");
    assert!(stderr.contains("cannot load"));
    // "--help" as a flag *value* is a bad value, not a help request —
    // parity with srclda-infer's wants_help.
    let (code, stdout, stderr) = run(SERVED_BIN, &["--model", FIXTURE, "--addr", "--help"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(!stdout.contains("usage:"), "must not print help: {stdout}");
    assert!(stderr.contains("cannot bind"), "stderr: {stderr}");
}

/// Full daemon lifecycle: boot on an OS-assigned port (equals-form flags),
/// answer a health check and an inference over real HTTP, then exit 0 on
/// SIGTERM with the graceful-shutdown message.
#[test]
fn served_boots_serves_and_shuts_down_on_sigterm() {
    let mut child = Command::new(SERVED_BIN)
        .args([
            &format!("--model=fixture={FIXTURE}"),
            "--addr=127.0.0.1:0",
            "--workers=2",
            "--iterations=10",
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("daemon launches");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    // The daemon prints its resolved address once it is listening.
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "daemon exited before listening"
        );
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let request = |method: &str, path: &str, body: &str| -> (u16, String) {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        write!(
            writer,
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        srclda_serve::server::http::read_simple_response(&mut BufReader::new(stream)).unwrap()
    };

    let (status, body) = request("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"fixture\""), "{body}");
    let (status, body) = request("POST", "/infer", "{\"text\": \"pencil ruler pencil\"}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"theta\""), "{body}");
    assert!(body.contains("\"tokens\":3"), "{body}");

    // SIGTERM → graceful drain → exit code 0.
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let exit = child.wait().expect("daemon exits");
    assert!(exit.success(), "graceful shutdown should exit 0: {exit:?}");
    let mut drained = String::new();
    stderr.read_to_string(&mut drained).unwrap();
    assert!(
        drained.contains("shutdown signal received"),
        "stderr: {drained}"
    );
    assert!(drained.contains("stopped"), "stderr: {drained}");
}
