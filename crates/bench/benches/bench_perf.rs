//! Regenerates `BENCH_perf.json`: every perf arm of
//! `segscope_bench::perf` (fabric, recycled trials, probe buffers, KASLR
//! engine, LSTM kernels, campaign sharding, serving, quantization), its
//! identity checks and its gates.
//!
//! Writes to the path in `SEGSCOPE_BENCH_JSON` (default
//! `BENCH_perf.json` in the current directory) before checking the
//! gates, then exits non-zero if an identity check or an armed gate
//! failed. Set `SEGSCOPE_BENCH_FULL=1` for the larger scales.

use segscope_bench::perf::{measure_all, Host};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator with heap-traffic counters so the probe
/// arm reports exact allocation counts rather than estimates. The
/// counters are per thread (the probe arm runs on one): plain
/// thread-local adds keep the wrapper from slowing allocation-heavy
/// arms, and from contending across the threads of the parallel ones.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` never fails for const-initialized, drop-free locals;
    // it keeps the allocator panic-free all the same.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// This thread's running `(allocations, bytes)` counters.
fn heap() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

fn main() {
    segscope_bench::header("Perf harness: timing arms, identity checks, gates");
    let report = measure_all(&Host::detect(), heap);
    report.print();
    let path =
        std::env::var("SEGSCOPE_BENCH_JSON").unwrap_or_else(|_| "BENCH_perf.json".to_string());
    let result = report.finish(&path);
    println!("\nwrote {path}");
    if let Err(failures) = result {
        eprintln!("perf gates failed:\n{failures}");
        std::process::exit(1);
    }
}
