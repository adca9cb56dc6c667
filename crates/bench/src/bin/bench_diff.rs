//! Exact comparison of two benchmark artifacts.
//!
//! Usage:
//! `cargo run --release -p spear-bench --bin bench_diff -- <expected.json> <actual.json>`
//!
//! Every field of the two JSON documents must be equal — fingerprints,
//! counters, histograms, virtual times — except object keys listed in
//! [`HOST_CLOCK_KEYS`], host-clock measurements that differ run to run.
//! Prints one line per differing path and exits 1 when anything differs,
//! 2 when either file cannot be read or parsed, 0 otherwise.

use serde_json::Value;

/// Object keys holding host-clock measurements, skipped at any depth.
const HOST_CLOCK_KEYS: &[&str] = &["host_wall_s"];

/// Append to `out` the path of every difference between `expected` and
/// `actual`, ignoring object keys listed in `skip`.
fn diff(path: &str, expected: &Value, actual: &Value, skip: &[&str], out: &mut Vec<String>) {
    match (expected, actual) {
        (Value::Object(e), Value::Object(a)) => {
            let keys = e.keys().chain(a.keys().filter(|k| !e.contains_key(k)));
            for key in keys.filter(|k| !skip.contains(&k.as_str())) {
                let child = format!("{path}.{key}");
                match (e.get(key), a.get(key)) {
                    (Some(ev), Some(av)) => diff(&child, ev, av, skip, out),
                    (Some(_), None) => out.push(format!("{child}: missing from actual")),
                    (None, _) => out.push(format!("{child}: not in expected")),
                }
            }
        }
        (Value::Array(e), Value::Array(a)) if e.len() == a.len() => {
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                diff(&format!("{path}[{i}]"), ev, av, skip, out);
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            out.push(format!("{path}: length {} vs {}", e.len(), a.len()));
        }
        _ if expected != actual => out.push(format!(
            "{path}: {} vs {}",
            serde_json::to_string(expected).unwrap_or_default(),
            serde_json::to_string(actual).unwrap_or_default()
        )),
        _ => {}
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [expected_path, actual_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <expected.json> <actual.json>");
        std::process::exit(2);
    };
    let (expected, actual) = match (load(expected_path), load(actual_path)) {
        (Ok(e), Ok(a)) => (e, a),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("bench_diff: {err}");
            std::process::exit(2);
        }
    };
    let mut diffs = Vec::new();
    diff("$", &expected, &actual, HOST_CLOCK_KEYS, &mut diffs);
    if diffs.is_empty() {
        println!("bench_diff: {actual_path} matches {expected_path} except host-clock keys");
        return;
    }
    eprintln!(
        "bench_diff: {actual_path} differs from {expected_path} at {} path(s):",
        diffs.len()
    );
    for line in &diffs {
        eprintln!("  {line}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(expected: &str, actual: &str, skip: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        diff(
            "$",
            &serde_json::from_str(expected).unwrap(),
            &serde_json::from_str(actual).unwrap(),
            skip,
            &mut out,
        );
        out
    }

    #[test]
    fn skipped_keys_are_ignored_at_any_depth() {
        let e = r#"{"rows":[{"host_wall_s":0.5,"fp":"ab"}],"n":3}"#;
        let a = r#"{"rows":[{"host_wall_s":0.9,"fp":"ab"}],"n":3}"#;
        assert!(paths(e, a, HOST_CLOCK_KEYS).is_empty());
        assert_eq!(paths(e, a, &[]), vec!["$.rows[0].host_wall_s: 0.5 vs 0.9"]);
    }

    #[test]
    fn every_other_difference_is_reported_by_path() {
        let e = r#"{"a":1,"b":[1,2],"c":{"x":true},"d":0}"#;
        let a = r#"{"a":2,"b":[1],"c":{"x":true,"y":1}}"#;
        assert_eq!(
            paths(e, a, HOST_CLOCK_KEYS),
            vec![
                "$.a: 1 vs 2",
                "$.b: length 2 vs 1",
                "$.c.y: not in expected",
                "$.d: missing from actual",
            ]
        );
    }
}
