//! Seeded workload generation.
//!
//! Every workload is an open loop on the virtual clock: arrival timestamps
//! are drawn up front and the simulator consumes them, so the generator can
//! never run late (its lateness is zero by construction, not measured).
//! One [`Instance`] is a pure function of `(workload, seed)`; the program
//! only ever sees the generated views, plans and requests.

use std::collections::BTreeMap;
use std::sync::Arc;

use spear_cluster::{ChurnEvent, ClusterConfig, RouterConfig};
use spear_core::condition::Cond;
use spear_core::pipeline::Pipeline;
use spear_core::plan::{lower, LoweredPlan};
use spear_core::runtime::ExecState;
use spear_core::value::Value;
use spear_core::view::{ViewCatalog, ViewDef};
use spear_core::{RefAction, RefinementMode};
use spear_llm::{EngineConfig, ModelProfile, Tokenizer};
use spear_serve::{GeneratedWorkload, KvPressureConfig, Priority, ServeConfig, ServeRequest};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 2-lane node serving the paper's GEN → CHECK → REF → GEN shape.
    ServeRefine,
    /// A burst through a bounded KV block pool (memory pressure).
    KvBurst,
    /// A 4-node fleet with prefix-aware routing and membership churn.
    FleetChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Self::ServeRefine, Self::KvBurst, Self::FleetChurn];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeRefine => "serve_refine",
            Self::KvBurst => "kv_burst",
            Self::FleetChurn => "fleet_churn",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed shape of the workload.
    pub fn shape(self) -> Shape {
        match self {
            Self::ServeRefine => Shape {
                requests: 2000,
                families: 12,
                zipf: 1.0,
                duplicate_share: 0.3,
                interactive_share: 0.6,
                gen_calls: 1,
                refine_below: Some(REFINE_TAU),
                mean_gap_us: 640_000,
                burst: false,
                limits_us: [2_500_000, 4_000_000],
                instances: 24,
                checked: 4,
            },
            Self::KvBurst => Shape {
                requests: 192,
                families: 4,
                zipf: 0.0,
                duplicate_share: 0.0,
                interactive_share: 0.6,
                gen_calls: 6,
                refine_below: None,
                mean_gap_us: 800,
                burst: true,
                limits_us: [1_500_000, 2_000_000],
                instances: 8,
                checked: 1,
            },
            Self::FleetChurn => Shape {
                requests: 1500,
                families: 12,
                zipf: 1.1,
                duplicate_share: 0.0,
                interactive_share: 0.6,
                gen_calls: 1,
                refine_below: None,
                mean_gap_us: 250_000,
                burst: false,
                limits_us: [1_500_000, 2_500_000],
                instances: 48,
                checked: 4,
            },
        }
    }

    /// The serving configuration of one node.
    pub fn serve_config(self, lanes: usize) -> ServeConfig {
        ServeConfig {
            lanes,
            pressure: (self == Self::KvBurst).then(pressure),
            ..ServeConfig::default()
        }
    }

    /// The fleet configuration (`fleet_churn` only) at `rate_x` times the
    /// base rate: 4 one-lane nodes, prefix-aware routing, node 1 drained a
    /// third of the way in and node 4 joined two thirds of the way in.
    pub fn cluster_config(self, instance: &Instance, rate_x: f64) -> ClusterConfig {
        let last = instance.rows.last().map_or(0, |r| r.arrival_us);
        let last = (last as f64 / rate_x).round() as u64;
        ClusterConfig {
            initial_nodes: 4,
            node: self.serve_config(1),
            // The scale-out benchmark's tuning: the Zipf head spreads over
            // several replicas, the tail stays unreplicated.
            router: RouterConfig {
                replicate_share: 0.08,
                max_replicas: 6,
                ..RouterConfig::default()
            },
            churn: vec![
                ChurnEvent::drain(last / 3, 1),
                ChurnEvent::join(last * 2 / 3, 4),
            ],
            profile: ModelProfile::qwen25_7b_instruct(),
            engine: instance.engine_config(),
        }
    }
}

/// Threshold of the CHECK[low_confidence(τ)] retry on `serve_refine`. The
/// simulated classifier's first-GEN confidence on these inputs has
/// quartiles of about 0.75 / 0.78 / 0.83, so τ = 0.77 sends about 37% of
/// requests down the REF branch: some, not none and not all.
pub const REFINE_TAU: f64 = 0.77;

/// The bounded KV pool of `kv_burst` (the `pressure_config()` shape of the
/// serve benchmark): 192 blocks of 4 tokens.
pub fn pressure() -> KvPressureConfig {
    KvPressureConfig {
        pool_blocks: 192,
        block_size: 4,
        pool_stripes: 1,
        max_batched_tokens: 1024,
        prefill_chunk_tokens: 128,
        ..KvPressureConfig::default()
    }
}

/// The fixed shape of one workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Requests per instance.
    pub requests: usize,
    /// Prompt families (one view and one plan each).
    pub families: usize,
    /// Zipf exponent of family popularity (0 = uniform).
    pub zipf: f64,
    /// Share of requests that exactly repeat an earlier request.
    pub duplicate_share: f64,
    /// Share of requests in the interactive class.
    pub interactive_share: f64,
    /// GEN slots per plan before the optional refinement branch.
    pub gen_calls: usize,
    /// `Some(τ)` adds `CHECK[confidence < τ] { REF auto_refine → GEN }`.
    pub refine_below: Option<f64>,
    /// Mean inter-arrival gap at the base rate, µs.
    pub mean_gap_us: u64,
    /// Evenly spaced arrivals with an exact family and class mix when set;
    /// exponential (Poisson) gaps and independent draws otherwise.
    pub burst: bool,
    /// End-to-end latency limit per class `[interactive, batch]`, µs.
    pub limits_us: [u64; 2],
    /// Independent instances generated (and pooled) per run.
    pub instances: usize,
    /// Instances (the first ones) also served at 1 lane for the
    /// lane-invariance and GEN-response checks.
    pub checked: usize,
}

impl Shape {
    /// The latency limit of a class.
    pub fn limit_us(&self, class: Priority) -> u64 {
        match class {
            Priority::Interactive => self.limits_us[0],
            Priority::Batch => self.limits_us[1],
        }
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request of an instance, before it is materialized at a rate.
#[derive(Debug, Clone)]
pub struct Row {
    /// Request id (`0..requests`, arrival order).
    pub id: u64,
    /// Family index.
    pub family: usize,
    /// The per-request payload bound to `{{ctx:item}}`.
    pub item: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Arrival at the base rate, virtual µs.
    pub arrival_us: u64,
    /// Admission token estimate.
    pub est_tokens: u64,
}

/// One generated instance of a workload.
#[derive(Debug)]
pub struct Instance {
    /// Seed the instance was drawn from (also the engine seed).
    pub seed: u64,
    /// Family views.
    pub views: ViewCatalog,
    /// Family pipelines in tree form (the oracle executes these).
    pub pipelines: Vec<Pipeline>,
    /// The same pipelines lowered (the server executes these).
    pub plans: Vec<Arc<LoweredPlan>>,
    /// Shared instruction prefix length per family, tokens.
    pub prefix_tokens: Vec<u64>,
    /// Requests in arrival order.
    pub rows: Vec<Row>,
}

const TOPICS: [&str; 12] = [
    "support tickets about account access",
    "product reviews of kitchen appliances",
    "incident reports from the payments service",
    "meeting notes from the design team",
    "bug reports filed against the mobile app",
    "customer emails about delivery delays",
    "forum posts discussing firmware updates",
    "survey answers on commute patterns",
    "lab results attached to outpatient visits",
    "release notes for the billing platform",
    "field reports from wind turbine inspections",
    "contract clauses flagged by the legal team",
];

const WORDS: [&str; 20] = [
    "ledger", "gasket", "thread", "signal", "carton", "branch", "kernel", "saddle", "lantern",
    "mortar", "pulley", "quartz", "ribbon", "socket", "tunnel", "valley", "walnut", "zephyr",
    "anchor", "bobbin",
];

/// Lexicon words that move the simulated classifier's confidence: each
/// net-polar word raises it, so the item mix spreads confidences across the
/// CHECK threshold.
const POLAR: [&str; 8] = [
    "great", "happy", "perfect", "grateful", "awful", "upset", "ruined", "stressed",
];

/// A family's instruction: topic first (families diverge at the first
/// block), then a long shared guideline block — hundreds of tokens of
/// prefix that same-family requests share — and the per-request input
/// last.
fn instruction(family: usize) -> String {
    let topic = TOPICS[family % TOPICS.len()];
    let mut text = format!(
        "You are triaging {topic}. Classify the sentiment of the input as \
         positive or negative and give a one-line justification.\nGuidelines \
         for every input:\n"
    );
    for i in 1..=10 {
        text.push_str(&format!(
            "{i}. Read the full input before answering; weigh wording about \
             {topic} over incidental detail, keep the justification faithful \
             to the original claims, and never invent facts the input does \
             not state.\n"
        ));
    }
    text.push_str("Answer with a word limit of 50.\nInput: {{ctx:item}}");
    text
}

/// A per-request payload: filler words with an occasional polar word.
fn item(rng: &mut Rng, id: u64) -> String {
    let mut item = format!("case {id}:");
    for _ in 0..12 {
        item.push(' ');
        if rng.unit() < 0.12 {
            item.push_str(POLAR[rng.below(POLAR.len())]);
        } else {
            item.push_str(WORDS[rng.below(WORDS.len())]);
        }
    }
    item
}

fn pipeline(workload: Workload, shape: &Shape, family: usize, view: &str) -> Pipeline {
    let mut builder = Pipeline::builder(format!("{}_{family}", workload.name()))
        .create_from_view("p", view, BTreeMap::new())
        .gen("answer", "p");
    for extra in 1..shape.gen_calls {
        builder = builder.gen(&format!("answer_{extra}"), "p");
    }
    if let Some(tau) = shape.refine_below {
        builder = builder.check(Cond::low_confidence(tau), |b| {
            b.refine(
                "p",
                RefAction::Update,
                "auto_refine",
                Value::Null,
                RefinementMode::Auto,
            )
            .gen("answer_refined", "p")
        });
    }
    builder.build()
}

/// A burst's `(family, class)` sequence: an exact composition — every
/// family and class in its share — in a seeded order, so burst instances
/// differ in order and payload but not in how much of each kind of work
/// they hold. Drawn first for every workload, so the rest of the random
/// stream is laid out the same whether or not the workload is a burst.
fn burst_mix(shape: &Shape, rng: &mut Rng) -> Vec<(usize, Priority)> {
    let interactive = (shape.requests as f64 * shape.interactive_share).round() as usize;
    let mut mix: Vec<(usize, Priority)> = (0..shape.requests)
        .map(|i| {
            let class = if i < interactive {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            (i % shape.families, class)
        })
        .collect();
    shuffle(&mut mix, rng);
    mix
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

impl Instance {
    /// Generate the instance of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let shape = workload.shape();
        let mut rng = Rng::new(seed);
        let tokenizer = Tokenizer::new();
        let views = ViewCatalog::new();
        let mut pipelines = Vec::with_capacity(shape.families);
        let mut plans = Vec::with_capacity(shape.families);
        let mut prefix_tokens = Vec::with_capacity(shape.families);
        for family in 0..shape.families {
            let view = format!("{}_family_{family}", workload.name());
            let text = instruction(family);
            prefix_tokens.push(tokenizer.count(&text) as u64);
            views.register(ViewDef::new(view.clone(), text));
            let pipeline = pipeline(workload, &shape, family, &view);
            plans.push(Arc::new(
                lower(&pipeline).expect("benchmark pipelines lower"),
            ));
            pipelines.push(pipeline);
        }

        let weights: Vec<f64> = (0..shape.families)
            .map(|k| 1.0 / ((k + 1) as f64).powf(shape.zipf))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }

        let burst_mix = burst_mix(&shape, &mut rng);

        let mut rows: Vec<Row> = Vec::with_capacity(shape.requests);
        let mut originals: Vec<usize> = Vec::new();
        let mut arrival_us = 0u64;
        for id in 0..shape.requests as u64 {
            if shape.burst {
                arrival_us += shape.mean_gap_us;
                let item = item(&mut rng, id);
                let (family, priority) = burst_mix[id as usize];
                rows.push(Row {
                    id,
                    family,
                    est_tokens: prefix_tokens[family] + tokenizer.count(&item) as u64 + 50,
                    item,
                    priority,
                    arrival_us,
                });
                continue;
            }
            let gap = -(1.0 - rng.unit()).ln() * shape.mean_gap_us as f64;
            arrival_us += (gap.round() as u64).max(1);
            let duplicate = !originals.is_empty() && rng.unit() < shape.duplicate_share;
            let (family, item) = if duplicate {
                let source = &rows[originals[rng.below(originals.len())]];
                (source.family, source.item.clone())
            } else {
                let u = rng.unit();
                let family = cdf
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(shape.families - 1);
                originals.push(rows.len());
                (family, item(&mut rng, id))
            };
            let priority = if rng.unit() < shape.interactive_share {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let est_tokens = prefix_tokens[family] + tokenizer.count(&item) as u64 + 50;
            rows.push(Row {
                id,
                family,
                item,
                priority,
                arrival_us,
                est_tokens,
            });
        }
        Self {
            seed,
            views,
            pipelines,
            plans,
            prefix_tokens,
            rows,
        }
    }

    /// The engine configuration every engine serving this instance uses.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            seed: self.seed,
            ..EngineConfig::default()
        }
    }

    /// The execution state a request starts from.
    pub fn state(&self, row: &Row) -> ExecState {
        let mut state = ExecState::new();
        state.context.set("item", row.item.as_str());
        state
    }

    /// The request stream with arrivals at `rate_x` times the base rate.
    pub fn requests(&self, rate_x: f64) -> Vec<ServeRequest> {
        self.rows
            .iter()
            .map(|row| {
                let arrival_us = (row.arrival_us as f64 / rate_x).round() as u64;
                ServeRequest::new(
                    row.id,
                    row.priority,
                    Arc::clone(&self.plans[row.family]),
                    self.state(row),
                    arrival_us,
                )
                .with_est_tokens(row.est_tokens)
                .with_shared_prefix_tokens(self.prefix_tokens[row.family])
            })
            .collect()
    }

    /// The instance as a cluster workload at `rate_x` times the base rate.
    pub fn cluster_workload(&self, rate_x: f64) -> GeneratedWorkload {
        GeneratedWorkload {
            views: self.views.clone(),
            plans: self.plans.clone(),
            requests: self.requests(rate_x),
        }
    }
}

/// The seed of instance `index` of a run seeded with `seed`.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed ^ ((index as u64 + 1) << 48)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(instance: &Instance) -> Vec<(u64, usize, String, Priority, u64, u64)> {
        instance
            .rows
            .iter()
            .map(|r| {
                (
                    r.id,
                    r.family,
                    r.item.clone(),
                    r.priority,
                    r.arrival_us,
                    r.est_tokens,
                )
            })
            .collect()
    }

    #[test]
    fn instances_are_pure_functions_of_the_seed() {
        for workload in Workload::ALL {
            let a = Instance::generate(workload, instance_seed(7, 0));
            let b = Instance::generate(workload, instance_seed(7, 0));
            let c = Instance::generate(workload, instance_seed(8, 0));
            assert_eq!(digest(&a), digest(&b), "{}", workload.name());
            assert_ne!(digest(&a), digest(&c), "{}", workload.name());
            assert_eq!(a.rows.len(), workload.shape().requests);
            assert!(a
                .rows
                .windows(2)
                .all(|w| w[0].arrival_us <= w[1].arrival_us));
        }
    }

    #[test]
    fn bursts_hold_an_exact_mix() {
        let instance = Instance::generate(Workload::KvBurst, 3);
        let shape = Workload::KvBurst.shape();
        for family in 0..shape.families {
            let n = instance.rows.iter().filter(|r| r.family == family).count();
            assert_eq!(n, shape.requests / shape.families);
        }
        let interactive = instance
            .rows
            .iter()
            .filter(|r| r.priority == Priority::Interactive)
            .count();
        assert_eq!(
            interactive,
            (shape.requests as f64 * shape.interactive_share).round() as usize
        );
    }

    #[test]
    fn serve_refine_plans_carry_the_refinement_branch() {
        let instance = Instance::generate(Workload::ServeRefine, 1);
        let text = instance.plans[0].describe();
        assert!(text.contains("CHECK"), "{text}");
        assert!(text.contains("auto_refine"), "{text}");
    }
}
