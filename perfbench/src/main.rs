//! `perfbench` — the SPEAR serving benchmark.
//!
//! ```text
//! perfbench --workload <serve_refine|kv_burst|fleet_churn> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the run's spans under `perfbench/results/`). The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the stamp (machine, toolchain, source, seed) and information
//! that is not gated. A correctness mismatch exits with code 1 after
//! printing; bad arguments exit with code 2 and print no result.

mod alloc;
mod bench;
mod cpu;
mod metrics;
mod probe;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{Better, END_TO_END, PER_LAYER};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The checked command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} out of 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    }))
}

/// A JSON string literal (the benchmark's strings are plain ASCII).
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(table: &[(&str, &str, Better)], values: &BTreeMap<String, f64>) -> String {
    let entries: Vec<String> = table
        .iter()
        .map(|(name, unit, _)| {
            let value = values
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(name),
                number(*value),
                quoted(unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"build_profile\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"source_digest\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        quoted(env!("PERFBENCH_PROFILE")),
        quoted(env!("PERFBENCH_RUSTC")),
        quoted(env!("PERFBENCH_GIT_COMMIT")),
        quoted(env!("PERFBENCH_SOURCE_DIGEST")),
        quoted(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    )
}

fn info(args: &Args, result: &bench::RunResult) -> String {
    let shape = args.workload.shape();
    let v = &result.virt;
    let prints: Vec<String> = result
        .fingerprints
        .iter()
        .map(|f| quoted(&format!("{f:016x}")))
        .collect();
    format!(
        "{{\"stamp\": {}, \"info\": {{\"requests_per_instance\": {}, \"instances\": {}, \
         \"instances_checked_at_1_lane\": {}, \"e2e_samples\": {}, \"samples_beyond_p99\": {}, \
         \"interactive_limit_ms\": {}, \"batch_limit_ms\": {}, \"base_rate_rps\": {}, \
         \"virt_max_rate_rps\": {}, \"error_pct\": {}, \"timed_passes\": {}, \
         \"host_rps_unscaled\": {}, \"setup_s_unscaled\": {}, \"yardstick_ms\": {}, \
         \"generator_lateness\": \"zero by construction (arrivals are virtual timestamps)\", \
         \"fingerprints_1_lane\": [{}], \"mismatch\": {}}}}}",
        stamp(args),
        shape.requests,
        shape.instances,
        shape.checked,
        v.e2e.len(),
        stats::beyond(v.e2e.len(), 0.99),
        shape.limits_us[0] as f64 / 1e3,
        shape.limits_us[1] as f64 / 1e3,
        number(result.base_rate_rps),
        result.max_rate_rps.map_or("null".into(), number),
        number(stats::error_pct(&v.slo_rows)),
        result.host_rps.len(),
        number(bench::rps(&result.host_rps)),
        number(result.setup_s),
        number(result.yardstick_s * 1e3),
        prints.join(", "),
        result.mismatch.as_deref().map_or("null".into(), quoted),
    )
}

/// Write the result (and, traced, the spans) under `perfbench/results/`.
fn write_artifacts(args: &Args, info: &str, last: &str, spans: &[String]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{info}\n{last}\n"),
    )?;
    if args.traced {
        let mut body = spans.join("\n");
        body.push('\n');
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), body)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    if let Err(why) = stats::self_test() {
        eprintln!("perfbench: statistics self-test failed: {why}");
        return ExitCode::from(1);
    }
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("statistics self-test passed");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match bench::run(args.workload, args.seed, args.seconds, args.traced) {
        Ok(result) => result,
        Err(why) => {
            eprintln!("perfbench: {}: {why}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if stats::beyond(result.virt.e2e.len(), 0.99) < 10 {
        eprintln!("perfbench: fewer than 10 samples beyond p99; the workload is too small");
        return ExitCode::from(1);
    }

    let (table, values): (&[(&str, &str, Better)], _) = if args.traced {
        (&PER_LAYER, metrics::per_layer(args.workload, &result))
    } else {
        (&END_TO_END, metrics::end_to_end(&result))
    };
    for (name, unit, better) in table {
        println!(
            "{:<40} {:>16.4} {:<6} ({} is better)",
            name,
            values[*name],
            unit,
            better.label()
        );
    }
    let info = info(&args, &result);
    let last = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.mismatch.is_none(),
        result.attempted,
        result.failed,
        metrics_json(table, &values)
    );
    if let Err(why) = write_artifacts(&args, &info, &last, &result.layers.spans) {
        eprintln!("perfbench: could not write results: {why}");
    }
    if let Some(why) = &result.mismatch {
        eprintln!("perfbench: correctness mismatch: {why}");
    }
    println!("{info}");
    println!("{last}");
    if result.mismatch.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
