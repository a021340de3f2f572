//! The per-layer replay: a workload's inputs pushed through the same
//! public calls the service makes, on one thread, with a span around
//! each call.

use std::time::Duration;

use tempus_core::gemm::Matrix;
use tempus_core::shard::WidenPolicy;
use tempus_fleet::{FleetOutcome, FleetScheduler};
use tempus_runtime::{
    ArrayPlanner, ArrayPolicy, BackendKind, EngineConfig, Execution, InferenceBackend, Job,
    WorkerPool,
};
use tempus_serve::cache::cache_key;
use tempus_serve::{CacheEntry, ResultCache};

use crate::trace::Tracer;
use crate::workloads::{backend_for, Inputs, Workload};

/// Most requests one replay walks (warm-up first, then timed).
const REPLAY_REQUESTS: usize = 12_000;
/// Distinct inputs timed on a backend that is not on the workload's
/// served path, so every layer has a figure on every workload. The
/// NVDLA simulator is the paper's slow baseline: few samples.
const FUNCTIONAL_SAMPLE: usize = 256;
const TEMPUS_SAMPLE: usize = 32;
const NVDLA_SAMPLE: usize = 8;
/// Worker-pool round trips timed with a trivial job.
const POOL_ROUNDTRIPS: usize = 2_000;

/// Span names of the layers the dispatcher thread runs per request.
pub const DISPATCHER_LAYERS: [&str; 5] = [
    "runtime.content_key",
    "serve.cache_get",
    "runtime.plan",
    "fleet.admit",
    "serve.cache_insert",
];

/// What a replay measured beyond its spans.
#[derive(Default)]
pub struct ReplayOut {
    /// Requests replayed along the served path (`served` only).
    pub requests: u64,
    /// Outputs that mismatched their reference, or calls that failed.
    pub failed: u64,
    /// Simulated cycles of every Tempus execution.
    pub tempus_cycles: u64,
}

fn span_name(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::FastFunctional => "runtime.functional",
        BackendKind::TempusCycleAccurate => "runtime.tempus",
        BackendKind::NvdlaCycleAccurate => "runtime.nvdla",
    }
}

/// One backend of each kind, configured like `engine`'s workers.
struct Backends(Vec<(BackendKind, Box<dyn InferenceBackend>)>);

impl Backends {
    fn new(engine: &EngineConfig) -> Self {
        Backends(
            BackendKind::ALL
                .into_iter()
                .map(|kind| {
                    let e = engine.clone();
                    let backend = kind.instantiate(e.tempus, e.nvdla, e.gemm_grid, e.num_arrays);
                    (kind, backend)
                })
                .collect(),
        )
    }

    /// Runs `job` on `kind` at `width` arrays inside a span under
    /// `root`. `None` when it fails or its output differs from
    /// `reference`.
    fn execute(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        (kind, width): (BackendKind, usize),
        job: &Job,
        reference: u64,
    ) -> Option<Execution> {
        let backend = &mut self.0.iter_mut().find(|(k, _)| *k == kind)?.1;
        tracer
            .time(span_name(kind), root, || backend.execute_on(job, width))
            .ok()
            .filter(|run| run.output.digest() == reference)
    }
}

/// Replays `inputs` (warm-up first, then timed) through the calls
/// `workload`'s service makes: key, cache lookup and, on a miss, width
/// plan, fleet admission, backend execution and cache insert. Each call
/// starts from fresh state, so a replay with tracing off does the same
/// work as one with it on.
pub fn served(workload: Workload, inputs: &Inputs, tracer: &mut Tracer) -> ReplayOut {
    let config = workload.config();
    let engine = &config.engine;
    // An all-arrays service neither plans nor admits; the replay still
    // times both on the workload's inputs, with the default policy.
    let (policy, co_scheduled) = match engine.scheduling {
        ArrayPolicy::CostAware(policy) => (policy, true),
        ArrayPolicy::AllArrays => (WidenPolicy::edge_default(), false),
    };
    let mut planner = ArrayPlanner::new(engine, policy);
    let mut fleet = FleetScheduler::new(config.fleet_config());
    let mut cache = ResultCache::new(config.cache_capacity);
    let mut backends = Backends::new(engine);
    let mut out = ReplayOut::default();

    let order = inputs
        .warmup
        .iter()
        .chain(&inputs.timed)
        .take(REPLAY_REQUESTS);
    for (seq, &i) in order.enumerate() {
        let item = &inputs.items[i];
        let job = &item.request.job;
        let kind = backend_for(item.request.fidelity, &config);
        let root = tracer.open("replay.request", None, seq as u64);
        out.requests += 1;
        let content = tracer.time("runtime.content_key", root, || job.content_key());
        let key = cache_key(content, kind);
        if tracer
            .time("serve.cache_get", root, || cache.get(key))
            .is_none()
        {
            let plan = tracer.time("runtime.plan", root, || planner.plan_or_single(job));
            let admitted = tracer.time("fleet.admit", root, || {
                fleet.admit(&plan, item.request.deadline_cycles)
            });
            let width = match admitted {
                FleetOutcome::Placed(placed) if co_scheduled => placed.placement.assignment.granted,
                FleetOutcome::Placed(_) => engine.num_arrays,
                FleetOutcome::Rejected(_) => {
                    out.failed += 1;
                    tracer.close(root);
                    continue;
                }
            };
            match backends.execute(tracer, root, (kind, width), job, item.reference) {
                Some(run) => {
                    if kind == BackendKind::TempusCycleAccurate {
                        out.tempus_cycles += run.sim_cycles;
                    }
                    let entry = CacheEntry {
                        output: run.output,
                        sim_cycles: run.sim_cycles,
                        energy_pj: 0.0,
                        shards: run.shards,
                        shard_utilization: run.shard_utilization,
                        arrays_granted: width,
                    };
                    tracer.time("serve.cache_insert", root, || cache.insert(key, entry));
                }
                None => out.failed += 1,
            }
        }
        tracer.close(root);
    }
    out
}

/// Times each backend that `tracer` has no span of yet on a sample of
/// the inputs, so every layer has a figure on every workload, then
/// worker-pool round trips with a trivial job.
pub fn off_path(
    workload: Workload,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<ReplayOut, String> {
    let engine = workload.config().engine;
    let mut backends = Backends::new(&engine);
    let mut out = ReplayOut::default();
    for (kind, sample) in [
        (BackendKind::FastFunctional, FUNCTIONAL_SAMPLE),
        (BackendKind::TempusCycleAccurate, TEMPUS_SAMPLE),
        (BackendKind::NvdlaCycleAccurate, NVDLA_SAMPLE),
    ] {
        if tracer.spans.iter().any(|s| s.name == span_name(kind)) {
            continue;
        }
        for (n, item) in inputs.items.iter().take(sample).enumerate() {
            let root = tracer.open("replay.reference", None, n as u64);
            let width = (kind, engine.num_arrays);
            match backends.execute(tracer, root, width, &item.request.job, item.reference) {
                Some(run) if kind == BackendKind::TempusCycleAccurate => {
                    out.tempus_cycles += run.sim_cycles;
                }
                Some(_) => {}
                None => out.failed += 1,
            }
            tracer.close(root);
        }
    }

    let pool = WorkerPool::spawn(EngineConfig::new(BackendKind::FastFunctional).with_workers(1))
        .map_err(|err| format!("worker pool: {err}"))?;
    let one = Matrix::from_fn(1, 1, |_, _| 1);
    for n in 0..POOL_ROUNDTRIPS {
        let job = Job::gemm(n as u64, "trivial", one.clone(), one.clone());
        let root = tracer.open("replay.pool", None, n as u64);
        let done = tracer.time("runtime.pool_roundtrip", root, || {
            pool.submit(job, BackendKind::FastFunctional).is_ok()
                && pool
                    .collect_timeout(Duration::from_secs(10))
                    .is_some_and(|o| o.result.is_ok())
        });
        tracer.close(root);
        out.failed += u64::from(!done);
    }
    let _worker_stats = pool.shutdown();
    Ok(out)
}
