//! `sim-dst`: the deterministic-simulation half of the repository.
//!
//! Set-up scans scenario seeds upward from a fixed base for each of the
//! four `dst::gen` generators and keeps the first 93 whose run conforms
//! (no oracle violation), remembering each run's trace hash: the
//! universe. The run's `--seed` then drops 3 of each generator's 93 and
//! shuffles the rest: the corpus, 360 scenarios. One op is
//! `generate(seed)` + `run::execute`; it is correct iff the run still
//! has no violation and still hashes the same. One window is one pass
//! over the corpus, so every window does identical work.
//!
//! Why the seed only thins a fixed universe instead of drawing the whole
//! corpus: scenarios differ in cost by an order of magnitude, and 360
//! independent draws moved `allocs_per_op` by +-6 % and `ops_per_s` by
//! +-15 % from seed to seed — more than the bounds those metrics are
//! gated with. Two corpora that share 15 scenarios in 16 differ by about
//! 1 %. The price is that an unseen seed is a weaker check on this
//! workload than on the `rt-*` ones; `README.md` says so.

use super::{mix, Size, SplitMix};
use crate::harness::{flanked, Report, Workload};
use crate::stats;
use crate::trace::{Kind, SpanStore};
use std::sync::Arc;
use std::time::Instant;
use weakset_dst::gen::{generate, generate_causal, generate_merkle, generate_sharded};
use weakset_dst::oracle;
use weakset_dst::run::{execute, RunReport};
use weakset_dst::scenario::Scenario;

type Generator = fn(u64) -> Scenario;

/// The four generators, in corpus order, with their per-layer rows.
const GENERATORS: [(&str, Generator); 4] = [
    ("dst.execute.plain_us", generate),
    ("dst.execute.sharded_us", generate_sharded),
    ("dst.execute.causal_us", generate_causal),
    ("dst.execute.merkle_us", generate_merkle),
];

/// One corpus entry: which generator, which seed, what its run hashed to.
#[derive(Clone, Copy)]
struct Entry {
    generator: usize,
    seed: u64,
    trace_hash: u64,
}

/// Where the universe scan starts (per generator, mixed with its
/// index). Fixed: the universe must not depend on `--seed`.
const UNIVERSE_BASE: u64 = 0x6c65_6467_6572; // "ledger"

/// The `sim-dst` workload.
pub struct DstWorkload {
    seed: u64,
    /// Conforming scenarios scanned per generator.
    universe: usize,
    /// Of those, how many the seed keeps.
    per_generator: usize,
    corpus: Vec<Entry>,
    skipped: u64,
    deliveries: u64,
    store: Option<Arc<SpanStore>>,
    /// Test-only: expect a wrong trace hash, so every op "fails".
    wrong_expectation: bool,
}

impl DstWorkload {
    /// 90 of 93 conforming scenarios per generator (3 of 4 at smoke
    /// size).
    pub fn new(seed: u64, size: Size, store: Option<Arc<SpanStore>>) -> Self {
        let (universe, per_generator) = match size {
            Size::Full => (93, 90),
            Size::Smoke => (4, 3),
        };
        DstWorkload {
            seed,
            universe,
            per_generator,
            corpus: Vec::new(),
            skipped: 0,
            deliveries: 0,
            store,
            wrong_expectation: false,
        }
    }

    /// Test-only: makes every correctness check expect the wrong hash.
    #[cfg(test)]
    pub fn expect_wrong_results(&mut self) {
        self.wrong_expectation = true;
    }

    fn conforms(&self, entry: Entry, report: &RunReport) -> bool {
        let want = entry.trace_hash ^ u64::from(self.wrong_expectation);
        report.violations.is_empty() && report.trace_hash == want
    }
}

impl Workload for DstWorkload {
    fn set_up(&mut self) -> bool {
        self.corpus.clear();
        self.skipped = 0;
        for (g, (_, generator)) in GENERATORS.iter().enumerate() {
            let mut universe = Vec::with_capacity(self.universe);
            let mut seed = mix(UNIVERSE_BASE ^ mix(g as u64 + 1));
            while universe.len() < self.universe {
                let report = execute(&generator(seed));
                if report.violations.is_empty() {
                    universe.push(Entry {
                        generator: g,
                        seed,
                        trace_hash: report.trace_hash,
                    });
                } else {
                    self.skipped += 1;
                }
                seed = seed.wrapping_add(1);
            }
            // Seeded Fisher-Yates; the tail that falls off is what the
            // seed drops.
            let mut rng = SplitMix(mix(self.seed ^ mix(g as u64 + 1)));
            for i in (1..universe.len()).rev() {
                universe.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            universe.truncate(self.per_generator);
            self.corpus.append(&mut universe);
        }
        self.corpus.len() == GENERATORS.len() * self.per_generator
    }

    fn tear_down(&mut self) {
        self.corpus.clear();
    }

    fn ops_per_window(&self) -> usize {
        GENERATORS.len() * self.per_generator
    }

    fn count_ops(&self) -> usize {
        self.ops_per_window()
    }

    fn op(&mut self, i: u64) -> bool {
        let entry = self.corpus[(i % self.corpus.len() as u64) as usize];
        let generator = GENERATORS[entry.generator].1;
        let report = match self.store.as_ref().filter(|s| s.recording()) {
            None => execute(&generator(entry.seed)),
            Some(store) => {
                let open = store.enter(Kind::DstGenerate);
                let scenario = generator(entry.seed);
                store.exit(open);
                let open = store.enter(Kind::DstExecute);
                let report = execute(&scenario);
                store.exit(open);
                // The oracle already ran inside `execute`; running it
                // again from outside is what prices it.
                let open = store.enter(Kind::SpecCheck);
                for computation in &report.computations {
                    std::hint::black_box(oracle::check(&scenario, computation));
                }
                store.exit(open);
                report
            }
        };
        self.deliveries += report.metrics.counter("sim.dispatch.deliver");
        self.conforms(entry, &report)
    }

    fn messages(&self) -> u64 {
        self.deliveries
    }

    fn threaded(&self) -> bool {
        false
    }

    /// One more flanked corpus pass, timing `execute` alone per scenario
    /// and reading the exact counts off its reports.
    fn extras(&mut self, report: &mut Report) {
        let scenarios = self.corpus.len() as f64;
        let mut execute_us: Vec<Vec<f64>> = vec![Vec::new(); GENERATORS.len()];
        let (mut events, mut obs_events, mut steps) = (0u64, 0u64, 0u64);
        let ((), factor) = flanked(|| {
            for entry in &self.corpus {
                let scenario = GENERATORS[entry.generator].1(entry.seed);
                let t0 = Instant::now();
                let run = execute(&scenario);
                execute_us[entry.generator].push(t0.elapsed().as_nanos() as f64 / 1e3);
                events += run.metrics.counter("sim.dispatch.total");
                obs_events += run.events.len() as u64;
                steps += run.steps as u64;
            }
        });
        let total_us: f64 = execute_us.iter().flatten().sum();
        for ((name, _), samples) in GENERATORS.iter().zip(&execute_us) {
            report.put(name, stats::median(samples) * factor);
        }
        report.put("sim.events_per_scenario", events as f64 / scenarios);
        report.put(
            "sim.events_per_s",
            events as f64 / (total_us * factor / 1e6),
        );
        report.put(
            "obs_sink.events_per_scenario",
            obs_events as f64 / scenarios,
        );
        report.put("dst.steps_per_scenario", steps as f64 / scenarios);
        report.put("dst.corpus.skipped", self.skipped as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_end_to_end, SETUP_REPS};

    const WINDOWS: usize = 2;

    #[test]
    fn corpus_follows_the_seed_and_replays() {
        let corpus = |seed| {
            let mut w = DstWorkload::new(seed, Size::Smoke, None);
            assert!(w.set_up());
            w.corpus
                .iter()
                .map(|e| (e.generator, e.seed, e.trace_hash))
                .collect::<Vec<_>>()
        };
        assert_eq!(corpus(9), corpus(9));
        assert_ne!(corpus(9), corpus(10));
        let mut w = DstWorkload::new(9, Size::Smoke, None);
        let report = run_end_to_end(&mut w, WINDOWS);
        assert_eq!(report.failed, 0);
        assert!(report.get("msgs_per_op").unwrap() > 0.0);
    }

    #[test]
    fn a_wrong_expectation_fails_every_scenario() {
        let mut w = DstWorkload::new(9, Size::Smoke, None);
        w.expect_wrong_results();
        let report = run_end_to_end(&mut w, WINDOWS);
        // Set-ups still pass: they record the hashes, they do not check
        // them.
        assert_eq!(report.failed, report.attempted - SETUP_REPS as u64);
    }
}
