//! Seeded workload inputs: the interaction data the program trains on, the
//! held-out users and edges the answers are scored against, and the
//! open-loop arrival schedules with their request bodies.
//!
//! Everything here is a pure function of the workload and `--seed`; the
//! program under test only ever sees the files and request bytes this
//! module produces.

use crate::rng::Rng;
use crate::workloads::{Profile, Workload};
use ocular_datasets::profiles::{b2b_like, netflix_like, Scale};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// Offsets that make external ids differ from internal indices, so every
/// request resolves through the id maps the training run embeds.
const USER_ID_BASE: u64 = 100_000;
pub const ITEM_ID_BASE: u64 = 900_000;

/// Share of users held out of training entirely; their baskets are the
/// cold-start requests.
const COLD_USER_SHARE: f64 = 0.10;
/// Share of the remaining edges kept for training (the paper's 75/25).
const TRAIN_SHARE: f64 = 0.75;
/// Share of the training edges that arrive as the retrain delta.
const DELTA_SHARE: f64 = 0.10;

/// Top-M length every request asks for.
pub const M: usize = 10;

/// A user held out of training: half of their real items form the basket
/// sent as a cold request, the other half are what recall is scored on.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdUser {
    pub basket: Vec<u64>,
    pub remaining: Vec<u64>,
}

/// One workload's generated data, all in external ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Training edges written to the base edge list (90%).
    pub base: Vec<(u64, u64)>,
    /// Training edges written to the delta edge list (10%).
    pub delta: Vec<(u64, u64)>,
    /// Held-out edges of training users (the paper's 25% test split).
    pub test: Vec<(u64, u64)>,
    /// Users held out of training, with their baskets.
    pub cold: Vec<ColdUser>,
    /// Users present in base ∪ delta, ascending.
    pub warm_users: Vec<u64>,
    /// Items each warm user owns in base ∪ delta, ascending.
    pub owned: HashMap<u64, Vec<u64>>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let scale = Scale::Factor(w.scale);
        let data = match w.profile {
            Profile::B2b => b2b_like(scale, seed),
            Profile::Netflix => netflix_like(scale, seed),
        }
        .matrix;
        let mut rng = Rng::new(seed, 1);
        let mut base = Vec::new();
        let mut delta = Vec::new();
        let mut test = Vec::new();
        let mut cold = Vec::new();
        for u in 0..data.n_rows() {
            let user = USER_ID_BASE + u as u64;
            let items: Vec<u64> = data
                .row(u)
                .iter()
                .map(|&i| ITEM_ID_BASE + i as u64)
                .collect();
            if items.len() >= 2 && rng.unit() < COLD_USER_SHARE {
                let mut shuffled = items;
                rng.shuffle(&mut shuffled);
                let remaining = shuffled.split_off(shuffled.len().div_ceil(2));
                shuffled.sort_unstable();
                cold.push(ColdUser {
                    basket: shuffled,
                    remaining,
                });
                continue;
            }
            for item in items {
                if rng.unit() >= TRAIN_SHARE {
                    test.push((user, item));
                } else if rng.unit() < DELTA_SHARE {
                    delta.push((user, item));
                } else {
                    base.push((user, item));
                }
            }
        }
        // A basket item the training data never saw would be an unknown
        // id, not a cold request: keep only trained items.
        let mut owned: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(u, i) in base.iter().chain(&delta) {
            owned.entry(u).or_default().push(i);
        }
        let trained_items: std::collections::HashSet<u64> =
            base.iter().chain(&delta).map(|&(_, i)| i).collect();
        for c in &mut cold {
            c.basket.retain(|i| trained_items.contains(i));
        }
        cold.retain(|c| !c.basket.is_empty() && !c.remaining.is_empty());
        for items in owned.values_mut() {
            items.sort_unstable();
        }
        let mut warm_users: Vec<u64> = owned.keys().copied().collect();
        warm_users.sort_unstable();
        Inputs {
            base,
            delta,
            test,
            cold,
            warm_users,
            owned,
        }
    }

    pub fn write_edges(path: &Path, edges: &[(u64, u64)]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (u, i) in edges {
            writeln!(out, "{u}\t{i}")?;
        }
        out.flush()
    }
}

/// What one scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// `{"user_id": warm_users[i]}`.
    Warm(usize),
    /// `{"basket_ids": cold[i].basket}`.
    Cold(usize),
}

impl Ask {
    /// The exact request body sent for this ask.
    pub fn body(self, inputs: &Inputs) -> String {
        match self {
            Ask::Warm(i) => format!("{{\"user_id\":{},\"m\":{M}}}", inputs.warm_users[i]),
            Ask::Cold(i) => {
                let ids: Vec<String> = inputs.cold[i].basket.iter().map(u64::to_string).collect();
                format!("{{\"basket_ids\":[{}],\"m\":{M}}}", ids.join(","))
            }
        }
    }
}

/// One open-loop arrival: when it is due (from the phase start) and what
/// it asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub ask: Ask,
}

/// A Poisson arrival schedule at `rate` requests per second over
/// `seconds`, each request cold with probability `cold_share`. `stream`
/// keeps the schedules of different phases independent.
pub fn schedule(
    inputs: &Inputs,
    rate: f64,
    seconds: f64,
    cold_share: f64,
    seed: u64,
    stream: u64,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 100 + stream);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(rate);
        if t >= seconds {
            return out;
        }
        let ask = if !inputs.cold.is_empty() && rng.unit() < cold_share {
            Ask::Cold(rng.below(inputs.cold.len()))
        } else {
            Ask::Warm(rng.below(inputs.warm_users.len()))
        };
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            ask,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn same_seed_gives_same_schedule_and_bodies() {
        let w = &WORKLOADS[0];
        let a = Inputs::generate(w, 7);
        let b = Inputs::generate(w, 7);
        assert_eq!(a, b);
        let sa = schedule(&a, 2000.0, 0.5, 0.5, 7, 1);
        let sb = schedule(&b, 2000.0, 0.5, 0.5, 7, 1);
        assert_eq!(sa, sb);
        let bodies = |s: &[Arrival], i: &Inputs| -> Vec<String> {
            s.iter().map(|x| x.ask.body(i)).collect()
        };
        assert_eq!(bodies(&sa, &a), bodies(&sb, &b));
        // another seed moves both the data and the schedule
        let c = Inputs::generate(w, 8);
        assert_ne!(a.base, c.base);
        assert_ne!(sa, schedule(&c, 2000.0, 0.5, 0.5, 8, 1));
    }

    #[test]
    fn schedule_rate_and_mix_follow_the_parameters() {
        let inputs = Inputs::generate(&WORKLOADS[0], 3);
        let s = schedule(&inputs, 4000.0, 2.0, 0.5, 3, 2);
        let n = s.len() as f64;
        assert!((n - 8000.0).abs() < 400.0, "{n} arrivals for 8000 expected");
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let cold = s.iter().filter(|a| matches!(a.ask, Ask::Cold(_))).count() as f64;
        assert!((cold / n - 0.5).abs() < 0.03, "cold share {}", cold / n);
    }

    #[test]
    fn cold_baskets_keep_real_sizes_and_exclude_training() {
        let inputs = Inputs::generate(&WORKLOADS[0], 5);
        assert!(!inputs.cold.is_empty());
        let sizes: std::collections::BTreeSet<usize> =
            inputs.cold.iter().map(|c| c.basket.len()).collect();
        assert!(
            sizes.len() > 3,
            "basket sizes follow real degrees: {sizes:?}"
        );
        // every basket item is a trained (known) id, and none is scored
        let trained: std::collections::HashSet<u64> = inputs
            .base
            .iter()
            .chain(&inputs.delta)
            .map(|e| e.1)
            .collect();
        for c in &inputs.cold {
            assert!(c.basket.iter().all(|i| trained.contains(i)));
            assert!(c.basket.iter().all(|i| !c.remaining.contains(i)));
        }
    }
}
