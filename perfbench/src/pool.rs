//! The recorded input pools. A seed set fixes one seed per system (for the
//! batch workloads its `ActiveLearnerConfig::seed`, and so its initial
//! traces; for `daemon` the seed of its sessions' trace batches). For each
//! system the pool is sorted by the recorded cost of that system's runs and
//! cut into as many strata as a pass runs the system; the workload seed picks
//! one seed set from each stratum, at mirrored ranks in mirrored strata.
//! Every run thus sees different inputs with a comparable cost per system,
//! which keeps the spread between runs small without dropping the expensive
//! seed sets.

use amle_benchmarks::Benchmark;
use std::collections::HashMap;

/// A workload whose inputs come from a recorded pool of seed sets.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Seed sets recorded in the reference file.
    pub pool: usize,
    /// Runs of each system in one pass (one per stratum of the pool).
    pub strata: usize,
    salt: u64,
    pub reference: &'static str,
}

pub const PAPER_TABLE1: Shape = Shape {
    name: "paper-table1",
    pool: 32,
    strata: 4,
    salt: 0x7AB1_E001,
    reference: include_str!("../reference/paper-table1.txt"),
};

pub const COLD_CHECK: Shape = Shape {
    name: "cold-check",
    pool: 256,
    strata: 32,
    salt: 0xC01D_C4EC,
    reference: include_str!("../reference/cold-check.txt"),
};

pub const DAEMON: Shape = Shape {
    name: "daemon",
    pool: 32,
    strata: 4,
    salt: 0xDAE_0D00,
    reference: include_str!("../reference/daemon.txt"),
};

impl Shape {
    /// The systems of this workload, in their registry order.
    pub fn suite(&self) -> Vec<Benchmark> {
        if self.name == COLD_CHECK.name {
            amle_benchmarks::full_suite()
        } else {
            amle_benchmarks::all_benchmarks()
        }
    }

    /// The seed of `system` in seed set `entry`.
    pub fn system_seed(&self, entry: usize, system: usize) -> u64 {
        splitmix(splitmix(self.salt ^ entry as u64) ^ system as u64)
    }
}

/// SplitMix64's output function.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The recorded reference per seed set and system: the fingerprint digest,
/// and the run's wall time on the recording machine, which only orders the
/// pool into strata.
pub struct Reference {
    entries: HashMap<(usize, String), (String, f64)>,
}

impl Reference {
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [entry, system, digest, cost_ms] = fields[..] else {
                return Err(format!("reference line {}: expected 4 fields", n + 1));
            };
            let entry = entry
                .parse()
                .map_err(|_| format!("reference line {}: bad seed set", n + 1))?;
            let cost_ms = cost_ms
                .parse()
                .map_err(|_| format!("reference line {}: bad cost", n + 1))?;
            entries.insert((entry, system.to_string()), (digest.to_string(), cost_ms));
        }
        Ok(Reference { entries })
    }

    /// The recorded cost in ms, or 0 when the pair was not recorded.
    pub fn cost_ms(&self, entry: usize, system: &str) -> f64 {
        self.entries
            .get(&(entry, system.to_string()))
            .map_or(0.0, |(_, cost)| *cost)
    }

    pub fn digest(&self, entry: usize, system: &str) -> Option<&str> {
        self.entries
            .get(&(entry, system.to_string()))
            .map(|(d, _)| d.as_str())
    }

    /// The runs of a pass for workload seed `seed`, as `(seed set, system)`
    /// pairs: for each system, the pool is ordered by the recorded cost of
    /// that system's runs and cut into `shape.strata` strata, and the
    /// workload seed picks one seed set from each, at mirrored ranks in
    /// mirrored strata. Runs are ordered stratum
    /// by stratum, so the first `suite.len()` cover every system once.
    pub fn select(
        &self,
        shape: &Shape,
        suite: &[Benchmark],
        seed: u64,
    ) -> Result<Vec<(usize, usize)>, String> {
        let per_stratum = shape.pool / shape.strata;
        let mut runs = vec![(0, 0); shape.strata * suite.len()];
        for (system, b) in suite.iter().enumerate() {
            let mut pool = Vec::with_capacity(shape.pool);
            for entry in 0..shape.pool {
                let (_, cost) = self
                    .entries
                    .get(&(entry, b.name.clone()))
                    .ok_or_else(|| format!("no reference for seed set {entry}, {}", b.name))?;
                pool.push((*cost, entry));
            }
            pool.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Mirrored strata take mirrored ranks (antithetic picks), so a
            // heavy pick in one is offset by a light pick in the other.
            for stratum in 0..shape.strata.div_ceil(2) {
                let key = shape.salt ^ ((system as u64) << 32) ^ stratum as u64;
                let rank = splitmix(seed ^ splitmix(key)) as usize % per_stratum;
                let mirror = shape.strata - 1 - stratum;
                runs[stratum * suite.len() + system] =
                    (pool[stratum * per_stratum + rank].1, system);
                runs[mirror * suite.len() + system] = (
                    pool[mirror * per_stratum + per_stratum - 1 - rank].1,
                    system,
                );
            }
        }
        Ok(runs)
    }
}
