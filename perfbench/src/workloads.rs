//! The benchmark's workloads. Every rate is a constant here and restated in
//! the workload's `why` in `BENCHMARK.json`; nothing is derived at run
//! time.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `ocular_datasets::profiles::b2b_like`: many clients, a small catalog.
    B2b,
    /// `ocular_datasets::profiles::netflix_like`: a 12× larger catalog.
    Netflix,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub profile: Profile,
    /// Size multiplier on the profile (`Scale::Factor`).
    pub scale: f64,
    /// Latent dimension passed as `--k`.
    pub k: usize,
    /// Sweep budget passed as `--iters`: below the sweep count at which
    /// every seed converges, so each retrain does the same work.
    pub iters: usize,
    /// Flags passed to both `serve --train` and `serve --listen`.
    pub engine_flags: &'static [&'static str],
    /// Share of requests that are cold baskets.
    pub cold_share: f64,
    /// Open-loop rates (requests per second) of the light and heavy
    /// phases; the refresh stream runs at the light rate.
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// Retrain → rename → reload cycles in the refresh phase. With the
    /// set-ups' trainings they feed the median `retrain_cpu_s`, which
    /// takes about eight trainings to hold still on a shared host.
    pub cycles: u64,
}

impl Workload {
    pub fn shards(&self) -> usize {
        self.flag("--shards")
            .map_or(1, |v| v.parse().expect("numeric --shards"))
    }

    pub fn quantize(&self) -> Option<ocular_serve::QuantDtype> {
        self.flag("--quantize")
            .map(|v| ocular_serve::QuantDtype::parse(v).expect("known --quantize dtype"))
    }

    fn flag(&self, name: &str) -> Option<&'static str> {
        let i = self.engine_flags.iter().position(|f| *f == name)?;
        self.engine_flags.get(i + 1).copied()
    }
}

pub const WORKLOADS: [Workload; 2] = [
    // The engine takes a few µs of each round trip here, so HTTP, the
    // protocol, admission, batch dispatch and the socket dominate;
    // fold-in, the large-catalog kernel and sharding are bypassed.
    Workload {
        name: "warm-small-catalog",
        profile: Profile::B2b,
        scale: 1.0,
        k: 20,
        iters: 18,
        engine_flags: &[],
        cold_share: 0.0,
        light_rps: 1500.0,
        heavy_rps: 4000.0,
        cycles: 7,
    },
    // Fold-in, candidate generation over a 12× larger catalog, the int8
    // kernel and the scatter-gather merge do most of the work.
    Workload {
        name: "cold-mix-sharded",
        profile: Profile::Netflix,
        scale: 2.0,
        k: 28,
        iters: 36,
        engine_flags: &["--shards", "2", "--quantize", "int8"],
        cold_share: 0.5,
        light_rps: 800.0,
        heavy_rps: 1500.0,
        cycles: 5,
    },
];
