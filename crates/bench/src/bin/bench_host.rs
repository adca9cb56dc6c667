//! Host fast-path throughput harness, emitting `BENCH_host.json`.
//!
//! Usage:
//! `cargo run --release -p spear-bench --bin bench_host [-- --n 384 --families 6 --iters 8 --seed 140 --out BENCH_host.json]`
//!
//! Runs the same request streams flat (interner off — the pre-fast-path
//! behaviour) and segmented (interner on) and reports host-side
//! requests/sec and allocations/request for both, plus a tree-walk-vs-
//! bytecode-VM dispatch microbenchmark on a synthetic 64-slot plan.
//! Acceptance: responses byte-identical across modes, the warm-prefix
//! serve workload at least 2x faster on the fast path, and the VM
//! dispatching at least 1.6x the tree walk's ops/sec with identical
//! traces.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spear_bench::cli::{arg, arg_str};
use spear_bench::host_bench::{run, HostBenchConfig};
use spear_bench::report::{f, Table};

/// The system allocator wrapped with counters, so the report can state
/// allocations/request for each mode.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn main() {
    let defaults = HostBenchConfig::default();
    let config = HostBenchConfig {
        seed: arg("--seed", defaults.seed),
        requests: arg("--n", defaults.requests as u64) as usize,
        families: arg("--families", defaults.families as u64) as usize,
        iters: arg("--iters", defaults.iters as u64) as usize,
    };
    let out_path = arg_str("--out", "BENCH_host.json");
    eprintln!(
        "bench_host: {} requests, {} families, {} timed passes, seed {}",
        config.requests, config.families, config.iters, config.seed
    );

    let report = run(&config, Some(snapshot));

    let mut table = Table::new(&[
        "Workload",
        "Mode",
        "Req/s",
        "us/req",
        "Allocs/req",
        "KiB/req",
        "Speedup",
        "Identical",
    ]);
    for w in &report.workloads {
        for (mode, r) in [("baseline", &w.baseline), ("fast", &w.fast)] {
            table.row(vec![
                w.name.clone(),
                mode.to_string(),
                f(r.requests_per_sec, 0),
                f(r.ns_per_request / 1e3, 1),
                f(r.allocs_per_request, 1),
                f(r.bytes_per_request / 1024.0, 1),
                if mode == "fast" {
                    format!("{:.2}x", w.speedup)
                } else {
                    String::new()
                },
                if mode == "fast" {
                    w.responses_identical.to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    println!("{}", table.render());

    let d = &report.dispatch;
    let mut dispatch_table =
        Table::new(&["Dispatch (64-slot plan)", "Ops/s", "Speedup", "Identical"]);
    dispatch_table.row(vec![
        "tree walk".to_string(),
        f(d.tree_ops_per_sec, 0),
        String::new(),
        String::new(),
    ]);
    dispatch_table.row(vec![
        "bytecode VM".to_string(),
        f(d.vm_ops_per_sec, 0),
        format!("{:.2}x", d.speedup),
        d.traces_identical.to_string(),
    ]);
    println!("{}", dispatch_table.render());

    let json = serde_json::to_string(&report).expect("serializable report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_host.json");
    eprintln!("wrote {out_path}");

    for w in &report.workloads {
        if !w.responses_identical {
            eprintln!(
                "FAIL: {} responses diverged between modes — the fast path must be invisible",
                w.name
            );
            std::process::exit(1);
        }
    }
    let serve = report
        .workloads
        .iter()
        .find(|w| w.name == "serve_warm_prefix")
        .expect("serve workload present");
    if serve.speedup < 2.0 {
        eprintln!(
            "FAIL: acceptance requires >=2x host-side requests/sec on the \
             warm-prefix serve workload, got {:.2}x",
            serve.speedup
        );
        std::process::exit(1);
    }
    if !report.dispatch.traces_identical {
        eprintln!("FAIL: tree-walk and VM traces diverged on the dispatch plan");
        std::process::exit(1);
    }
    if report.dispatch.speedup < 1.6 {
        eprintln!(
            "FAIL: acceptance requires the bytecode VM to dispatch >=1.6x \
             the tree walk's ops/sec, got {:.2}x",
            report.dispatch.speedup
        );
        std::process::exit(1);
    }
}
