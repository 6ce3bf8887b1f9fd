//! Golden fingerprints of the attack replay.
//!
//! Both counting attackers replay a trace through a handful of timeline
//! and step-series queries: where user code next runs, how much work fits
//! in a span, when a given amount of work completes, and the victim's
//! cumulative LLC loads. These fixed-seed goldens pin every trace value
//! and every `PeriodRecord` field (Fig. 8 reads the records) for the
//! loop- and sweep-counting attackers under six timer models. The inputs
//! are two 15 s default-machine simulations — whose frequency curves step
//! hundreds of times, so frequency changes land inside sweeps — and an
//! idle timeline. Any change beneath the replay that moves a bit fails
//! here.
//!
//! Run alone via `cargo test -p bf-attack --test replay_golden`.

use std::sync::OnceLock;

use bf_attack::replay::PeriodRecord;
use bf_attack::{LoopCountingAttacker, SweepCountingAttacker, Trace};
use bf_sim::{CacheConfig, CoreTimeline, KernelLog, Machine, MachineConfig, SimOutput};
use bf_stats::StepSeries;
use bf_timer::{BrowserKind, Nanos, PreciseTimer, QuantizedTimer, RandomizedTimer, Timer};
use bf_victim::WebsiteProfile;

const DURATION: Nanos = Nanos(15_000_000_000);
const PERIOD: Nanos = Nanos(5_000_000);

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn replay_hash((trace, records): &(Trace, Vec<PeriodRecord>)) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend((trace.len() as u64).to_le_bytes());
    bytes.extend(trace.values().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    bytes.extend((records.len() as u64).to_le_bytes());
    for r in records {
        bytes.extend(r.start_real.as_nanos().to_le_bytes());
        bytes.extend(r.end_real.as_nanos().to_le_bytes());
        bytes.extend(r.start_observed.as_nanos().to_le_bytes());
        bytes.extend(r.count.to_bits().to_le_bytes());
    }
    fnv1a(bytes)
}

/// The timer models, built fresh for every replay.
fn timers(seed: u64) -> [Box<dyn Timer>; 6] {
    [
        Box::new(PreciseTimer::new()),
        Box::new(QuantizedTimer::new(Nanos::from_millis(1))),
        Box::new(QuantizedTimer::new(Nanos::from_millis(100))),
        BrowserKind::Chrome.timer(seed),
        BrowserKind::Firefox.timer(seed),
        Box::new(RandomizedTimer::with_defaults(seed)),
    ]
}

/// Two site simulations and an idle machine, each with its replay seed.
fn inputs() -> &'static [(u64, SimOutput)] {
    static INPUTS: OnceLock<Vec<(u64, SimOutput)>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let machine = Machine::new(MachineConfig::default());
        let mut out: Vec<(u64, SimOutput)> = [("nytimes.com", 1), ("weather.com", 2)]
            .into_iter()
            .map(|(host, seed)| {
                let workload = WebsiteProfile::for_hostname(host).generate(DURATION, seed);
                let sim = machine.run(&workload, seed ^ 0xABCD);
                let steps = sim.attacker_timeline().freq().len();
                assert!(steps > 500, "{host}: only {steps} frequency steps");
                (seed, sim)
            })
            .collect();
        let idle = SimOutput::from_materialized(
            vec![CoreTimeline::idle(DURATION)],
            KernelLog::new(),
            StepSeries::new(0.0),
            0,
            DURATION,
        );
        out.push((3, idle));
        out
    })
}

/// Replay `attack` over every input × timer, one hash per pair in
/// input-major order.
fn hashes(
    attack: impl Fn(&SimOutput, &mut dyn Timer, u64) -> (Trace, Vec<PeriodRecord>),
) -> Vec<u64> {
    let mut out = Vec::new();
    for (seed, sim) in inputs() {
        for mut timer in timers(*seed) {
            out.push(replay_hash(&attack(sim, &mut *timer, *seed)));
        }
    }
    out
}

/// Per input (nytimes.com, weather.com, idle), the timers in order:
/// precise, quantized 1 ms, quantized 100 ms, Chrome, Firefox,
/// randomized.
#[rustfmt::skip]
const GOLDEN_LOOP: [u64; 18] = [
    // nytimes.com
    0x603ea1810a3bdc58, 0x947a37e8b76784de, 0xb80d33082d1e2775,
    0x033dc30200fa9fcb, 0x70f0f7ca28c8bcba, 0x19eb5b9ff3f654b7,
    // weather.com
    0xaf8d18b461437bb0, 0xd3a75ea48faae042, 0x90d935606c9047d0,
    0xe0d87b418d261ea9, 0x43ef56a554237d69, 0x64ce7ca40797caf1,
    // idle: precise and 1 ms quantized agree on an idle core
    0x7481667cc2c3f6e7, 0x7481667cc2c3f6e7, 0xed69e2ea72cc2c45,
    0xddffa19d9969dc8c, 0x2a49ed9afda58844, 0x0708105bae566a90,
];
#[rustfmt::skip]
const GOLDEN_SWEEP: [u64; 18] = [
    // nytimes.com
    0x47cd89b5b8f0d88d, 0xcf8989ee00d694d6, 0x65ce9421992bf112,
    0x0fcadf986dcf20a6, 0xded9dad3d048bb48, 0x4672e451208ab056,
    // weather.com
    0x92d49433fadf8596, 0x79e82f5c22a3097a, 0xc44adf3e98ddd63a,
    0x3a97e85ae3aa6c9e, 0x1d2d7c29c6181b71, 0x6f035e6daa24f21a,
    // idle
    0x351f24bbe8fb004d, 0xee804ece11e10c9b, 0x375c148ce3b1f474,
    0x68512c43bf1b84a0, 0x84abae2057a2832c, 0xfe6f87c42e868222,
];

#[test]
fn loop_counting_replay_matches_its_goldens() {
    let attacker = LoopCountingAttacker::for_browser(BrowserKind::Chrome, PERIOD);
    let got = hashes(|sim, timer, _| attacker.collect_detailed(sim, timer));
    assert_eq!(got, GOLDEN_LOOP, "loop goldens moved: {got:#018x?}");
}

#[test]
fn sweep_counting_replay_matches_its_goldens() {
    let attacker = SweepCountingAttacker::new(PERIOD, CacheConfig::default());
    let got = hashes(|sim, timer, seed| attacker.collect_detailed(sim, timer, seed));
    assert_eq!(got, GOLDEN_SWEEP, "sweep goldens moved: {got:#018x?}");
}
