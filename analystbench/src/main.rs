//! Wire-level analyst benchmark for `viva-server`.
//!
//! ```text
//! cargo run --release --offline --manifest-path analystbench/Cargo.toml -- \
//!     --workload explore|zoom100k|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives an in-process server through `serve_tcp` on loopback with
//! real TCP clients, times every command at the client, checks every
//! reply, and prints each metric by name with its unit. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! See `analystbench/README.md` for the workloads and the metrics.

mod explore;
mod ingest;
mod mirror;
mod run;
mod script;
mod spans;
mod stats;
mod wire;
mod zoom;

use std::path::Path;
use std::process::ExitCode;

use run::{Metric, Sent};

/// Set-ups per run of `explore` and `zoom100k`; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;

/// What a workload hands back to the report.
#[derive(Default)]
pub struct Outcome {
    /// The workload's sizes, printed with the result.
    pub sizes: String,
    pub setup_s: Vec<f64>,
    /// The measured commands, one stream per connection (send order).
    pub streams: Vec<Vec<Sent>>,
    pub attempted: usize,
    /// One entry per failed operation.
    pub failures: Vec<String>,
    /// End-to-end metrics only this workload exercises.
    pub extra: Vec<Metric>,
    /// The traced run's per-layer metrics.
    pub layers: Vec<Metric>,
    pub context: Vec<String>,
    /// Why the run's numbers cannot be trusted, if they cannot.
    pub invalid: Option<String>,
    /// Span logs written out when the run ends: `(name, tsv)`.
    pub spans: Vec<(String, String)>,
}

/// The end-to-end metrics of the JSON line (`--trace 0`): those every
/// workload exercises and that hold steady from seed to seed. The
/// tails and the workload-specific metrics are printed above it.
const END_TO_END: [&str; 4] = [
    "setup_s",
    "interact_p50_ms",
    "frame_p50_ms",
    "commands_per_s",
];

/// The per-layer metrics of the JSON line (`--trace 1`): those every
/// workload exercises. The traced run prints all the others it measured
/// above it; a layer a workload does not exercise is absent there.
const PER_LAYER: [&str; 16] = [
    "self.wire_share",
    "self.server.decode_share",
    "self.server.encode_share",
    "unattributed_share",
    "tracing_overhead_share",
    "server.decode_ms.interact",
    "server.decode_ms.render",
    "server.execute_ms.interact",
    "server.execute_ms.render",
    "server.encode_ms",
    "server.response_bytes",
    "server.wire_ms.interact",
    "server.wire_ms.render",
    "core.svg_encode_ms",
    "core.svg_bytes_per_node",
    "agg.slice_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let args = Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
        return Err("--seconds must be within 1..=120".to_owned());
    }
    Ok(args)
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        .unwrap_or("?".into())
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<32} {:>14.4} {:<6} {}",
        m.name, m.value, m.unit, m.note
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analystbench: {e}\nusage: --workload explore|zoom100k|ingest --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load_at_start = load_average();
    let work = Path::new(".analystbench");
    std::fs::create_dir_all(work).expect("work directory in the checkout");
    let out = match args.workload.as_str() {
        "explore" => explore::run(args.seed, args.seconds, args.trace),
        "zoom100k" => zoom::run(args.seed, args.seconds, args.trace),
        "ingest" => ingest::run(args.seed, args.seconds, args.trace, work),
        other => {
            eprintln!("analystbench: unknown workload {other:?} (explore, zoom100k, ingest)");
            return ExitCode::from(2);
        }
    };

    println!(
        "analystbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context: nproc={nproc} loadavg_at_start={load_at_start} server_shards={} setups={}",
        wire::SHARDS,
        out.setup_s.len()
    );
    for line in &out.context {
        println!("context: {line}");
    }
    println!("sizes: {}", out.sizes);
    let failed = out.failures.len().min(out.attempted);
    let mut e2e = run::end_to_end(&out.setup_s, &out.streams);
    e2e.extend(out.extra.iter().cloned());
    e2e.push(run::metric(
        "error_rate",
        failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    println!("end-to-end (timed at the client, tracing off):");
    e2e.iter().for_each(print_metric);

    let mut json: Vec<Metric> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    if args.trace {
        println!(
            "per-layer (traced run; self shares are of the client time of the replayed commands):"
        );
        out.layers.iter().for_each(print_metric);
        for name in PER_LAYER {
            match out.layers.iter().find(|m| m.name == name) {
                Some(m) => json.push(m.clone()),
                None => missing.push(name.to_owned()),
            }
        }
        for (name, tsv) in &out.spans {
            let path = work.join(format!("spans-{}-{name}.tsv", args.workload));
            std::fs::write(&path, tsv).expect("write the span log");
            println!("spans: {}", path.display());
        }
    } else {
        for name in END_TO_END {
            json.push(
                e2e.iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .expect("every end-to-end metric"),
            );
        }
    }
    for f in out.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    if let Some(why) = &out.invalid {
        eprintln!("analystbench: run invalid: {why}");
        return ExitCode::from(3);
    }
    // A metric without samples is a failed run, not a zero.
    missing.extend(
        json.iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone()),
    );
    json.retain(|m| m.value.is_finite());
    if !missing.is_empty() {
        println!("FAILED: no value for {}", missing.join(", "));
    }
    let correct = out.failures.is_empty() && missing.is_empty();
    let metrics: Vec<String> = json
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        failed + usize::from(!missing.is_empty()),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
