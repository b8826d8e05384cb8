//! Generates a trace file of a built-in workload for external replay.
//!
//! Usage: `tracegen <program> <instructions> <output.utt> [seed]`
//!
//! `<program>` is any built-in workload name, `<instructions>` a
//! positive count and `[seed]` a decimal `u64` (default 1). A bad
//! argument exits with status 2 and a message.

use simtrace::encode::TraceBuffer;
use simtrace::workload::{builtin, builtins};

fn usage_error(message: &str) -> ! {
    eprintln!("tracegen: {message}");
    eprintln!("usage: tracegen <program> <instructions> <output.utt> [seed]");
    let names: Vec<String> = builtins().iter().map(|s| s.label()).collect();
    eprintln!("programs: {}", names.join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if !(4..=5).contains(&args.len()) {
        usage_error("expected 3 or 4 arguments");
    }
    let Some(program) = builtin(&args[1]) else {
        usage_error(&format!("unknown program {:?}", args[1]));
    };
    let n = match args[2].parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("bad instruction count {:?}", args[2])),
    };
    let seed = match args.get(4).map(|s| s.parse::<u64>()) {
        None => 1,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => usage_error(&format!("bad seed {:?}", args[4])),
    };

    let buf = TraceBuffer::encode(program.compile(seed).take(n));
    if let Err(e) = buf.save(&args[3]) {
        eprintln!("cannot write {}: {e}", args[3]);
        std::process::exit(1);
    }
    println!(
        "{}: {} instructions, {} bytes ({:.2} B/instr) -> {}",
        args[1],
        buf.len(),
        buf.byte_len(),
        buf.byte_len() as f64 / buf.len() as f64,
        args[3]
    );
}
