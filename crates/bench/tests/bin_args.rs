//! Argument handling of the diagnostic binaries: a bad argument is a
//! usage error (exit 2 with a message), never silently replaced by a
//! default.

use simtrace::workload::builtins;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(needle), "{needle:?} not in {stderr}");
    assert!(out.stdout.is_empty(), "a usage error writes no result");
}

#[test]
fn tracegen_rejects_bad_arguments_and_accepts_every_builtin() {
    let exe = env!("CARGO_BIN_EXE_tracegen");
    let path = std::env::temp_dir().join(format!("tracegen-{}.utt", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    assert_usage_error(&run(exe, &["ear", "100", file, "nope"]), "bad seed");
    assert_usage_error(&run(exe, &["ear", "0", file]), "bad instruction count");
    assert_usage_error(&run(exe, &["ear", "many", file]), "bad instruction count");
    assert_usage_error(&run(exe, &["ear", "100"]), "usage");
    let unknown = run(exe, &["quake", "100", file]);
    assert_usage_error(&unknown, "unknown program");
    for spec in builtins() {
        let name = spec.label();
        assert!(
            String::from_utf8_lossy(&unknown.stderr).contains(&name),
            "the usage lists {name}"
        );
        let out = run(exe, &[&name, "100", file, "7"]);
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("{name}: 100 instructions")),
            "{stdout}"
        );
    }
    std::fs::remove_file(&path).expect("tracegen wrote the trace");
}

#[test]
fn profile_proxies_rejects_a_bad_count() {
    let exe = env!("CARGO_BIN_EXE_profile_proxies");
    assert_usage_error(&run(exe, &["lots"]), "bad instruction count");
    assert_usage_error(&run(exe, &["0"]), "bad instruction count");
    assert_usage_error(&run(exe, &["100", "200"]), "usage");
    let out = run(exe, &["2000"]);
    assert!(out.status.success(), "{out:?}");
    let table = String::from_utf8_lossy(&out.stdout);
    for spec in builtins() {
        assert!(table.contains(&spec.label()), "{table}");
    }
}

#[test]
fn a_malformed_trace_budget_is_a_usage_error() {
    let with_budget = |exe: &str, args: &[&str], budget: &str| {
        Command::new(exe)
            .args(args)
            .env("REPRO_TRACE_BUDGET", budget)
            .output()
            .expect("binary runs")
    };
    let exp = env!("CARGO_BIN_EXE_exp");
    for (exe, args) in [(exp, &["list"][..]), (env!("CARGO_BIN_EXE_run_all"), &[])] {
        for bad in ["12x", "", "-1", "m"] {
            assert_usage_error(&with_budget(exe, args, bad), "REPRO_TRACE_BUDGET");
        }
    }
    for good in ["0", "4096", "64k", "8M"] {
        let out = with_budget(exp, &["list"], good);
        assert!(out.status.success(), "{good}: {out:?}");
    }
}

#[test]
fn a_malformed_stream_chunk_is_a_usage_error() {
    let with_chunk = |exe: &str, args: &[&str], chunk: &str| {
        Command::new(exe)
            .args(args)
            .env("REPRO_STREAM_CHUNK", chunk)
            .output()
            .expect("binary runs")
    };
    let exp = env!("CARGO_BIN_EXE_exp");
    for (exe, args) in [(exp, &["list"][..]), (env!("CARGO_BIN_EXE_run_all"), &[])] {
        for bad in ["0", "abc", "", "-5", "64k"] {
            assert_usage_error(&with_chunk(exe, args, bad), "REPRO_STREAM_CHUNK");
        }
    }
    for good in ["1", "4096", "65536"] {
        let out = with_chunk(exp, &["list"], good);
        assert!(out.status.success(), "{good}: {out:?}");
    }
}
