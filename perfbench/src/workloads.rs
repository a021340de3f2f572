//! The five workloads: their service configurations, their inputs
//! (generated by `tempus_models::traffic` from the seed, with reference
//! digests computed before any clock starts), and one measured pass
//! through a fresh `StreamingService`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tempus_models::traffic::{generate, TraceConfig, TraceRequest};
use tempus_runtime::{BackendKind, EngineConfig};
use tempus_serve::cache::cache_key;
use tempus_serve::{
    CacheOutcome, Fidelity, Request, ResponseOutcome, ServeConfig, ServeStats, SloPolicy,
    StreamingService, SubmitError,
};

use crate::harness::{
    closed_loop, open_loop, pin_current_thread, Completion, Endpoint, LoopStats, Outcome,
};

/// Fast templates in the `hot_hits` trace: about 12288 × (1 − 0.75)
/// distinct templates, enough that the warm-up's simulated totals vary
/// little from seed to seed, and fewer than the default 4096-entry
/// cache holds, so no timed request misses.
const HOT_TRACE: usize = 12_288;
const HOT_REPEAT: f64 = 0.75;
/// Timed requests per `hot_hits` pass (the trace order, cycled).
const HOT_TIMED: usize = 50_000;
/// Unique jobs per `cold_fleet` pass, above the cache capacity. Passes
/// of about half a second, so a 25 s run makes 40 or so.
const COLD_TIMED: usize = 4_000;
const COLD_CACHE: usize = 1024;
/// Unique accurate jobs per `accurate_sim` pass, about half a second.
const ACCURATE_TIMED: usize = 3_000;
/// Fresh keys per `dup_keys` pass, each sent `DUP_COPIES` times back
/// to back; the `DUP_ACCURATE` share of them is cycle-accurate. The
/// share is small because the simulator's speed on the measured host
/// is bimodal (see `accurate_sim` in README.md), yet large enough that
/// two accurate keys often share a window, so one is deferred.
const DUP_KEYS: usize = 8_000;
const DUP_COPIES: usize = 4;
const DUP_ACCURATE: f64 = 1.0 / 32.0;
/// Requests of the `paced_mix` trace, replayed every pass, and the rate
/// they are offered at.
const PACED_TIMED: usize = 2_000;
const PACED_RPS: f64 = 1_000.0;
/// Untimed warm-up requests: fast conv/GEMM for `cold_fleet`,
/// `dup_keys` and `paced_mix`, accurate jobs for `accurate_sim`
/// (`hot_hits` warms up with its templates).
const FAST_WARMUP: usize = 1024;
const ACCURATE_WARMUP: usize = 256;
/// Outstanding requests of the closed loops. `hot_hits` keeps the
/// dispatcher's queue from running dry; `cold_fleet` keeps latency
/// (window / throughput) well inside the 5 ms fast-path SLO, so
/// `slo_met` does not sit on its knee; `accurate_sim` stays within the
/// 32-deep deferral queue, so no request is ever rejected; so does
/// `dup_keys`, whose window overfills its ingestion queue.
const HOT_WINDOW: usize = 48;
const COLD_WINDOW: usize = 8;
const ACCURATE_WINDOW: usize = 32;
const DUP_WINDOW: usize = 32;
/// Ingestion queue of `dup_keys`: shorter than the window, so submits
/// block until the dispatcher drains it.
const DUP_QUEUE: usize = 8;
/// How long the client waits before it retries a submit that found
/// the ingestion queue full. A few dispatcher admissions long, so the
/// queue has room again but never runs dry.
const SUBMIT_BACKOFF: Duration = Duration::from_micros(4);
/// Jobs the dispatcher may have on the worker pool at once. Deeper than
/// the default two per worker, so the single worker always has its next
/// job queued instead of sleeping between jobs.
const MAX_IN_FLIGHT: usize = 16;
/// Accurate jobs admitted at once on `accurate_sim`, for the same
/// reason; the rest wait in the deferral queue. `dup_keys` admits one,
/// so the other accurate keys in its window are deferred.
const ACCURATE_IN_FLIGHT: usize = 4;
const DUP_ACCURATE_IN_FLIGHT: usize = 1;
/// CPUs of the client thread and of the service's threads.
const CLIENT_CPU: usize = 0;
const SERVICE_CPU: usize = 1;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotHits,
    ColdFleet,
    AccurateSim,
    DupKeys,
    PacedMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HotHits,
        Workload::ColdFleet,
        Workload::AccurateSim,
        Workload::DupKeys,
        Workload::PacedMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot_hits",
            Workload::ColdFleet => "cold_fleet",
            Workload::AccurateSim => "accurate_sim",
            Workload::DupKeys => "dup_keys",
            Workload::PacedMix => "paced_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One worker: the host has two cores, and the client and
    /// dispatcher threads need them as much as the worker does.
    pub fn config(self) -> ServeConfig {
        let mut base = ServeConfig::new().with_workers(1);
        base.max_in_flight = MAX_IN_FLIGHT;
        match self {
            Workload::ColdFleet => base
                .with_devices(2)
                .with_arrays(4)
                .with_backfill()
                .with_cache_capacity(COLD_CACHE),
            Workload::AccurateSim => {
                let deferred = base.deferred_capacity;
                base.with_admission(ACCURATE_IN_FLIGHT, deferred)
            }
            Workload::DupKeys => {
                let deferred = base.deferred_capacity;
                base.with_admission(DUP_ACCURATE_IN_FLIGHT, deferred)
                    .with_queue_capacity(DUP_QUEUE)
            }
            Workload::HotHits | Workload::PacedMix => base,
        }
    }

    /// `true` when the workload's simulated figures must repeat exactly
    /// for one seed. `paced_mix` arrivals race the service, so which
    /// repeats coalesce or hit the cache depends on timing.
    pub fn exact(self) -> bool {
        self != Workload::PacedMix
    }

    fn window(self) -> usize {
        match self {
            Workload::HotHits => HOT_WINDOW,
            Workload::ColdFleet | Workload::PacedMix => COLD_WINDOW,
            Workload::AccurateSim => ACCURATE_WINDOW,
            Workload::DupKeys => DUP_WINDOW,
        }
    }
}

/// One distinct request and what a correct answer to it looks like.
pub struct Item {
    pub request: Request,
    /// Output digest from the functional backend, computed directly.
    pub reference: u64,
    /// End-to-end latency target of the request's class.
    pub slo_ns: u64,
}

/// A workload's generated inputs.
pub struct Inputs {
    pub items: Vec<Item>,
    /// Item indices sent, in order, before the clock starts.
    pub warmup: Vec<usize>,
    /// Item indices sent while timed.
    pub timed: Vec<usize>,
    /// `paced_mix` only: when each timed request is due, in ns from the
    /// start of the timed phase.
    pub due_ns: Vec<u64>,
    /// Seconds spent generating the traces.
    pub generate_s: f64,
}

/// A fast-fidelity conv/GEMM mix: no networks (a network template
/// costs about 25 ms to generate).
fn conv_gemm(seed: u64, requests: usize) -> TraceConfig {
    let mut config = TraceConfig::new(seed)
        .with_requests(requests)
        .with_accurate_fraction(0.0);
    config.conv_weight = 0.5;
    config.gemm_weight = 0.5;
    config.network_weight = 0.0;
    config
}

/// Warm-up traffic drawn from its own seed, so it shares no keys with
/// the timed requests.
fn warmup_trace(seed: u64) -> Vec<TraceRequest> {
    generate(&conv_gemm(seed ^ 0x5EED_0000_0000_0001, FAST_WARMUP).with_repeat_fraction(0.0))
}

/// The backend the service runs a request of `fidelity` on.
pub fn backend_for(fidelity: Fidelity, config: &ServeConfig) -> BackendKind {
    match fidelity {
        Fidelity::Fast => BackendKind::FastFunctional,
        Fidelity::Accurate => config.accurate_backend,
    }
}

/// Collects distinct requests: `index` maps each request to its item,
/// keyed like the service's result cache (content key and backend).
struct ItemSet {
    config: ServeConfig,
    items: Vec<Item>,
    by_key: HashMap<u64, usize>,
    slo: SloPolicy,
}

impl ItemSet {
    fn new(config: ServeConfig) -> Self {
        ItemSet {
            config,
            items: Vec::new(),
            by_key: HashMap::new(),
            slo: SloPolicy::edge_defaults(),
        }
    }

    fn index(&mut self, t: &TraceRequest) -> usize {
        let request = Request::from_trace(t);
        let key = cache_key(
            request.job.content_key(),
            backend_for(request.fidelity, &self.config),
        );
        if let Some(&i) = self.by_key.get(&key) {
            return i;
        }
        let slo_ns = self.slo.target_ns(request.class());
        self.items.push(Item {
            request,
            reference: 0,
            slo_ns,
        });
        self.by_key.insert(key, self.items.len() - 1);
        self.items.len() - 1
    }

    /// Fills every reference digest by running the functional backend
    /// directly. Outputs are bit-identical on every backend and at
    /// every array width, so one reference serves all of them.
    fn finish(mut self) -> Result<Vec<Item>, String> {
        let e = EngineConfig::new(BackendKind::FastFunctional);
        let mut functional =
            BackendKind::FastFunctional.instantiate(e.tempus, e.nvdla, e.gemm_grid, 1);
        for item in &mut self.items {
            item.reference = functional
                .execute(&item.request.job)
                .map_err(|err| format!("reference for {}: {err}", item.request.job.name))?
                .output
                .digest();
        }
        Ok(self.items)
    }
}

/// Generates `workload`'s inputs from `seed`.
pub fn build_inputs(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let started = Instant::now();
    let mut set = ItemSet::new(workload.config());
    let (warm, timed_trace): (Vec<TraceRequest>, Vec<TraceRequest>) = match workload {
        Workload::HotHits => (
            Vec::new(),
            generate(&conv_gemm(seed, HOT_TRACE).with_repeat_fraction(HOT_REPEAT)),
        ),
        Workload::ColdFleet => (
            warmup_trace(seed),
            generate(
                &conv_gemm(seed, COLD_TIMED)
                    .with_repeat_fraction(0.0)
                    .with_wide_conv_fraction(0.5),
            ),
        ),
        Workload::AccurateSim => {
            let mut trace = generate(
                &conv_gemm(seed, ACCURATE_WARMUP + ACCURATE_TIMED)
                    .with_repeat_fraction(0.0)
                    .with_accurate_fraction(1.0),
            );
            let timed = trace.split_off(ACCURATE_WARMUP);
            (trace, timed)
        }
        Workload::DupKeys => (
            warmup_trace(seed),
            generate(
                &conv_gemm(seed, DUP_KEYS)
                    .with_repeat_fraction(0.0)
                    .with_accurate_fraction(DUP_ACCURATE),
            ),
        ),
        Workload::PacedMix => (
            warmup_trace(seed),
            generate(&TraceConfig::new(seed).with_requests(PACED_TIMED)),
        ),
    };
    let generate_s = started.elapsed().as_secs_f64();
    let mut warmup: Vec<usize> = warm.iter().map(|t| set.index(t)).collect();
    let mut timed: Vec<usize> = timed_trace.iter().map(|t| set.index(t)).collect();
    let mut due_ns = Vec::new();
    match workload {
        Workload::HotHits => {
            // Every template is sent once in the warm-up; the timed
            // phase cycles the trace order, so every request hits.
            warmup = (0..set.items.len()).collect();
            timed = timed.iter().copied().cycle().take(HOT_TIMED).collect();
        }
        Workload::ColdFleet | Workload::AccurateSim | Workload::DupKeys => {
            // Drop the rare repeated key: every timed key is fresh.
            let mut seen = vec![false; set.items.len()];
            for &i in &warmup {
                seen[i] = true;
            }
            timed.retain(|&i| !std::mem::replace(&mut seen[i], true));
            if workload == Workload::DupKeys {
                // Each key `DUP_COPIES` times in a row: the first copy
                // executes, the others coalesce onto it or, once it has
                // finished, hit the cache. Either way every key executes
                // exactly once, so the simulated figures repeat.
                timed = timed
                    .iter()
                    .flat_map(|&i| std::iter::repeat_n(i, DUP_COPIES))
                    .collect();
            }
        }
        Workload::PacedMix => {
            // Keep the trace's bursty arrival shape, but stretch it so
            // the offered rate is exactly `PACED_RPS`: bursts add
            // requests on top of the generator's mean gap.
            let first = timed_trace.first().map_or(0, |t| t.arrival_ns);
            let span = timed_trace.last().map_or(0, |t| t.arrival_ns) - first;
            let scale = timed_trace.len() as f64 / PACED_RPS * 1e9 / span.max(1) as f64;
            due_ns = timed_trace
                .iter()
                .map(|t| ((t.arrival_ns - first) as f64 * scale) as u64)
                .collect();
        }
    }
    Ok(Inputs {
        items: set.finish()?,
        warmup,
        timed,
        due_ns,
        generate_s,
    })
}

/// A running service as the client loops see it.
struct ServiceEndpoint<'a> {
    service: &'a StreamingService,
    items: &'a [Item],
    /// Item sent under each sequence number (= job id).
    sent: Vec<usize>,
}

impl Endpoint for ServiceEndpoint<'_> {
    fn send(&mut self, seq: u64, input: usize) -> Result<(Instant, Instant), String> {
        assert_eq!(seq, self.sent.len() as u64, "sequence numbers are dense");
        let mut request = self.items[input].request.clone();
        request.job.id = seq;
        self.sent.push(input);
        // Spin on the non-blocking submit rather than block in `submit`
        // while the queue is full (only `dup_keys` fills it), for the
        // reason `recv` busy-polls. Each refused `try_submit` takes the
        // queue's and the statistics' locks, which the dispatcher needs
        // too, so the client waits `SUBMIT_BACKOFF` between attempts
        // without touching the service.
        let start = Instant::now();
        loop {
            match self.service.try_submit(request) {
                Ok(()) => return Ok((start, Instant::now())),
                Err(SubmitError::QueueFull(back)) => {
                    request = *back;
                    let retry = Instant::now() + SUBMIT_BACKOFF;
                    while Instant::now() < retry {
                        std::hint::spin_loop();
                    }
                }
                Err(err) => return Err(format!("submit {seq}: {err}")),
            }
        }
    }

    fn recv(&mut self, timeout: Duration) -> Option<Completion> {
        // Busy-poll rather than block: the client's core never idles, so
        // the client never pays the latency of waking a halted virtual
        // CPU, which follows the host's load.
        let deadline = Instant::now() + timeout;
        let response = loop {
            if let Some(response) = self.service.recv_response(Duration::ZERO) {
                break response;
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::yield_now();
        };
        let item = &self.items[*self.sent.get(response.job_id as usize)?];
        let (outcome, hit) = match &response.outcome {
            ResponseOutcome::Done(r) if r.output.digest() == item.reference => {
                (Outcome::Correct, r.cache == CacheOutcome::Hit)
            }
            ResponseOutcome::Done(_) => (Outcome::Mismatch, false),
            ResponseOutcome::Rejected(_) | ResponseOutcome::Failed(_) => (Outcome::Refused, false),
        };
        Some(Completion {
            seq: response.job_id,
            outcome,
            hit,
            slo_ns: item.slo_ns,
        })
    }
}

/// Device-time figures of one pass. The simulator models them, so for
/// an `exact` workload they repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Array-cycles the executed jobs kept the device busy.
    pub busy_cycles: u64,
    pub makespan_cycles: u64,
    /// Energy of executed jobs (`ServeStats::energy_pj`; cache hits
    /// and coalesced requests spend none).
    pub energy_pj: f64,
}

impl SimFigures {
    fn of(stats: &ServeStats) -> Self {
        SimFigures {
            busy_cycles: stats.device.busy_cycles,
            makespan_cycles: stats.device.makespan_cycles,
            energy_pj: stats.energy_pj,
        }
    }
}

/// One measured pass.
pub struct Pass {
    /// `StreamingService::start` to the end of the warm-up.
    pub setup_s: f64,
    pub warmup: LoopStats,
    pub timed: LoopStats,
    pub stats: ServeStats,
    pub sim: SimFigures,
}

/// Starts a fresh service, warms it up untimed, runs the timed phase
/// and shuts the service down.
pub fn run_pass(workload: Workload, inputs: &Inputs, trace: bool) -> Result<Pass, String> {
    let started = Instant::now();
    // The service's dispatcher and worker inherit the affinity of the
    // thread that starts them: they share CPU 1 and the client keeps
    // CPU 0. Left to the scheduler, the placement changed from pass to
    // pass, and a pass whose worker shared the client's CPU ran at about
    // two thirds of the speed of one whose worker did not. Where CPUs 0
    // and 1 are not both available, the pass runs unpinned.
    let pinned = pin_current_thread(SERVICE_CPU);
    let service = StreamingService::start(workload.config())
        .map_err(|err| format!("service start: {err}"))?;
    if pinned {
        pin_current_thread(CLIENT_CPU);
    }
    let mut endpoint = ServiceEndpoint {
        service: &service,
        items: &inputs.items,
        sent: Vec::with_capacity(inputs.warmup.len() + inputs.timed.len()),
    };
    let window = workload.window();
    let warmup = closed_loop(&mut endpoint, &inputs.warmup, 0, window, false)?;
    let setup_s = started.elapsed().as_secs_f64();
    let first = inputs.warmup.len() as u64;
    let timed = match workload {
        Workload::PacedMix => {
            open_loop(&mut endpoint, &inputs.timed, &inputs.due_ns, first, trace)?
        }
        _ => closed_loop(&mut endpoint, &inputs.timed, first, window, trace)?,
    };
    let (stats, leftovers) = service.shutdown();
    if !leftovers.is_empty() {
        return Err(format!(
            "{} responses arrived after the last request",
            leftovers.len()
        ));
    }
    let sim = SimFigures::of(&stats);
    Ok(Pass {
        setup_s,
        warmup,
        timed,
        stats,
        sim,
    })
}
