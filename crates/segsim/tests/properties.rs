//! Property-based tests for the machine simulator.

use irq::time::Ps;
use memsim::KaslrLayout;
use proptest::prelude::*;
use rand::Rng;
use segsim::{CoResident, Defense, FaultPlan, Machine, MachineConfig, SpanEnd};
use x86seg::{DataSegReg, Selector};

fn table1_machine(idx: usize, seed: u64) -> Machine {
    let configs = MachineConfig::table1();
    Machine::new(configs[idx % configs.len()].clone(), seed)
}

/// A Table I preset under one of four fault plans and one of three
/// defenses, picked by `idx`.
fn varied_config(idx: usize) -> MachineConfig {
    let presets = MachineConfig::table1();
    let config = presets[idx % presets.len()].clone();
    let config = match (idx / presets.len()) % 4 {
        0 => config,
        1 => config.with_fault_plan(FaultPlan::timing_storm()),
        2 => config.with_fault_plan(FaultPlan::delivery_storm()),
        _ => config.with_fault_plan(
            FaultPlan::none()
                .with_drop_prob(0.1)
                .with_duplicate_prob(0.05),
        ),
    };
    let defense = match (idx / (presets.len() * 4)) % 3 {
        0 => Defense::None,
        1 => Defense::QuanShield,
        _ => Defense::default_padding(),
    };
    config.with_defense(defense)
}

/// Dirties `machine` with every piece of post-boot wiring a scenario
/// may apply (KASLR layout, co-resident victim, pinned frequency, local
/// load, a trace sink, enclave entry and teardown) interleaved with
/// random guest ops.
fn dirty(machine: &mut Machine, ops: &[u8]) {
    let layout = KaslrLayout::randomize(machine.rng_mut());
    machine.set_kaslr(layout);
    machine.set_co_resident(Some(CoResident::browser()));
    machine.install_trace_sink(obs::TraceSink::with_capacity(256));
    for (i, &op) in ops.iter().enumerate() {
        match op % 8 {
            0 => {
                let _ = machine.wrgs(Selector::from_bits(1 + (i % 3) as u16));
            }
            1 => machine.spin(1_000 + 500 * i as u64),
            2 => {
                let _ = machine.rdgs();
            }
            3 => {
                let _ = machine.run_user_until(machine.now() + Ps::from_us(300));
            }
            4 => machine.pin_frequency(Some(machine.config().freq.min_khz)),
            5 => machine.set_local_load(0.3),
            6 => {
                if machine.enter_enclave() {
                    let _ = machine.run_user_until(machine.now() + Ps::from_ms(2));
                    machine.exit_enclave();
                }
            }
            _ => machine.set_fault_plan(Some(FaultPlan::delivery_storm())),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulated time is strictly monotone under any op sequence.
    #[test]
    fn time_is_monotone(ops in prop::collection::vec(0u8..6, 1..60), seed in 0u64..100_000) {
        let mut machine = table1_machine(seed as usize, seed);
        let mut last = machine.now();
        for op in ops {
            match op {
                0 => machine.spin(1_000),
                1 => { let _ = machine.rdtsc(); }
                2 => { let _ = machine.rdgs(); }
                3 => { let _ = machine.wrgs(Selector::from_bits(1)); }
                4 => { let _ = machine.mem_access(0x1000); }
                _ => { let _ = machine.run_user_until(machine.now() + Ps::from_us(50)); }
            }
            let now = machine.now();
            prop_assert!(now > last, "time did not advance");
            last = now;
        }
    }

    /// rdtsc is monotone nondecreasing and advances across spins.
    #[test]
    fn tsc_is_monotone(spins in prop::collection::vec(1u64..1_000_000, 1..20)) {
        let mut machine = Machine::new(MachineConfig::lenovo_yangtian(), 0x7);
        let mut last = machine.rdtsc().expect("rdtsc");
        for s in spins {
            machine.spin(s);
            let now = machine.rdtsc().expect("rdtsc");
            prop_assert!(now > last);
            last = now;
        }
    }

    /// A span's user cycles never exceed what the max frequency could
    /// physically execute in that span.
    #[test]
    fn span_cycles_are_physical(seed in 0u64..100_000, idx in 0usize..6) {
        let mut machine = table1_machine(idx, seed);
        let max_khz = machine.config().freq.max_khz;
        for _ in 0..5 {
            let span = machine.run_user_until(machine.now() + Ps::from_ms(2));
            let wall = span.end - span.start;
            let bound = wall.cycles_at(max_khz) as f64 * 1.01 + 2.0;
            prop_assert!(span.cycles <= bound, "cycles {} > bound {bound}", span.cycles);
        }
    }

    /// After any interrupt-terminated span, no data-segment register
    /// holds a non-zero null selector (the Algorithm 1 guarantee), on
    /// any machine without the preserve mitigation.
    #[test]
    fn no_marker_survives_interrupts(seed in 0u64..100_000, marker in 1u16..4) {
        let mut machine = Machine::new(MachineConfig::honor_magicbook(), seed);
        machine.wrgs(Selector::from_bits(marker)).expect("marker");
        let span = machine.run_user_until(Ps::MAX);
        prop_assert!(matches!(span.ended_by, SpanEnd::Interrupt(_)));
        for reg in DataSegReg::ALL {
            prop_assert!(!machine.rdseg(reg).is_nonzero_null());
        }
    }

    /// Reset ≡ new: a machine dirtied by random ops and every kind of
    /// scenario wiring, then reset, is indistinguishable from a fresh
    /// machine — equal snapshots, no trace sink, and the same next RNG
    /// draw. The scenario driver recycles one machine per worker thread
    /// on exactly this property.
    #[test]
    fn reset_machine_matches_a_fresh_one(
        ops in prop::collection::vec(0u8..8, 1..40),
        dirty_idx in 0usize..72,
        fresh_idx in 0usize..72,
        seed in 0u64..100_000,
    ) {
        let mut machine = Machine::new(varied_config(dirty_idx), seed);
        dirty(&mut machine, &ops);
        let fresh_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        machine.reset(varied_config(fresh_idx), fresh_seed);
        let mut fresh = Machine::new(varied_config(fresh_idx), fresh_seed);
        prop_assert!(machine.trace_sink().is_none(), "reset must drop the sink");
        prop_assert_eq!(machine.snapshot(), fresh.snapshot());
        for _ in 0..4 {
            let deadline = fresh.now() + Ps::from_ms(3);
            prop_assert_eq!(machine.run_user_until(deadline), fresh.run_user_until(deadline));
        }
        prop_assert_eq!(machine.rng_mut().gen::<u64>(), fresh.rng_mut().gen::<u64>());
    }

    /// Frequency always stays within the machine's configured envelope.
    #[test]
    fn frequency_stays_in_envelope(seed in 0u64..100_000, idx in 0usize..6) {
        let mut machine = table1_machine(idx, seed);
        let (min, max) = (machine.config().freq.min_khz, machine.config().freq.max_khz);
        for _ in 0..50 {
            machine.spin(2_000_000);
            let f = machine.current_freq_khz();
            prop_assert!((min..=max).contains(&f), "freq {f} outside [{min}, {max}]");
        }
    }

    /// Ground truth and kernel-entry accounting agree: every recorded
    /// interrupt entered the kernel.
    #[test]
    fn ground_truth_matches_kernel_entries(seed in 0u64..100_000) {
        let mut machine = Machine::new(MachineConfig::xiaomi_air13(), seed);
        machine.ground_truth_mut().clear();
        let entries_before = machine.kernel_entries();
        for _ in 0..20 {
            let _ = machine.run_user_until(Ps::MAX);
        }
        let delivered = machine.ground_truth().len() as u64;
        let entries = machine.kernel_entries() - entries_before;
        prop_assert_eq!(delivered, entries);
    }

    /// The coarse clock is quantized and monotone for any resolution.
    #[test]
    fn coarse_clock_quantized(res_us in 1u64..10_000, seed in 0u64..100_000) {
        let mut machine = Machine::new(MachineConfig::amazon_c5_large(), seed);
        let res = Ps::from_us(res_us);
        let mut last = 0u64;
        for _ in 0..10 {
            machine.spin(500_000);
            let ns = machine.clock_read(res).expect("clock");
            prop_assert_eq!(ns % (res.as_ps() / 1_000).max(1), 0);
            prop_assert!(ns >= last);
            last = ns;
        }
    }
}
