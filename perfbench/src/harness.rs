//! Measurement plumbing shared by every workload: quantiles and
//! medians, the metric set and its JSON line, the closed- and
//! open-loop clients, and the run stamp.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long a client waits for one response before it declares the
/// run hung. Far above any single request's service time.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// `q`-quantile (0..=1) of a sample by nearest rank, the rule
/// `tempus_serve::percentile` applies to latencies.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ranks: Vec<u64> = (0..v.len() as u64).collect();
    let rank = tempus_serve::percentile(&ranks, q * 100.0) as usize;
    v.get(rank).copied().unwrap_or(0.0)
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `true` when `name` is a valid metric or workload name: it starts
/// with a letter or digit and holds at most 64 letters, digits, `_`,
/// `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` is a valid unit: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value, shown on the human-readable line.
    pub samples: usize,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when an output mismatched its reference or a simulated
    /// figure drifted between repeats of one seed.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Figures printed for people but kept out of the result line.
    pub info: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        debug_assert!(
            valid_name(name) && valid_unit(unit),
            "bad metric {name} [{unit}]"
        );
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result object the last stdout line carries.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that reads back to the
            // same f64, so no digit of the measurement is lost.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// How a request ended, as the client judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// An output whose digest equals the reference.
    Correct,
    /// An output whose digest differs from the reference.
    Mismatch,
    /// Rejected or failed: no output.
    Refused,
}

/// A request that finished, as the client sees it.
pub struct Completion {
    /// Client sequence number the request was sent under.
    pub seq: u64,
    pub outcome: Outcome,
    /// Answered from the result cache.
    pub hit: bool,
    /// The request class's end-to-end latency target.
    pub slo_ns: u64,
}

/// The system under test as a client sees it. The service implements
/// it in `workloads`; the tests substitute a fake.
pub trait Endpoint {
    /// Sends input `input` under sequence number `seq`, waiting while the
    /// system applies backpressure. Returns the interval sending took.
    fn send(&mut self, seq: u64, input: usize) -> Result<(Instant, Instant), String>;
    /// Waits up to `timeout` for the next response.
    fn recv(&mut self, timeout: Duration) -> Option<Completion>;
}

/// What one client phase measured.
#[derive(Default)]
pub struct LoopStats {
    pub sent: u64,
    pub received: u64,
    /// Requests not answered correctly (mismatched, rejected, failed).
    pub failed: u64,
    /// Of `failed`, answers whose output mismatched the reference.
    pub mismatched: u64,
    pub hits: u64,
    pub slo_met: u64,
    /// Nearest-rank percentiles of the latency (response minus due
    /// time) of the requests answered correctly, in ns.
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Summed generator lateness in ns: send start minus due time (for
    /// a closed loop, minus the moment the request's slot freed).
    pub late_ns: u64,
    /// First due time to last response.
    pub elapsed: Duration,
    /// Traced runs only: per request, `[due, submit start, submit
    /// end, response]`, in completion order.
    pub spans: Vec<[Instant; 4]>,
}

impl LoopStats {
    pub fn throughput_rps(&self) -> f64 {
        self.received as f64 / self.elapsed.as_secs_f64()
    }
}

struct Outstanding {
    due: Instant,
    submit: (Instant, Instant),
}

/// Shared bookkeeping of both clients.
struct Client<'a, E: Endpoint> {
    endpoint: &'a mut E,
    order: &'a [usize],
    first_seq: u64,
    trace: bool,
    outstanding: Vec<Option<Outstanding>>,
    latencies_ns: Vec<u64>,
    stats: LoopStats,
}

impl<'a, E: Endpoint> Client<'a, E> {
    fn new(endpoint: &'a mut E, order: &'a [usize], first_seq: u64, trace: bool) -> Self {
        Client {
            endpoint,
            order,
            first_seq,
            trace,
            outstanding: (0..order.len()).map(|_| None).collect(),
            latencies_ns: Vec::with_capacity(order.len()),
            stats: LoopStats::default(),
        }
    }

    fn send(&mut self, due: Instant) -> Result<(), String> {
        let i = self.stats.sent as usize;
        let start = Instant::now();
        let submit = self
            .endpoint
            .send(self.first_seq + i as u64, self.order[i])?;
        self.stats.late_ns += nanos(start - due.min(start));
        self.outstanding[i] = Some(Outstanding { due, submit });
        self.stats.sent += 1;
        Ok(())
    }

    fn receive(&mut self, timeout: Duration) -> Result<bool, String> {
        let Some(done) = self.endpoint.recv(timeout) else {
            return Ok(false);
        };
        let now = Instant::now();
        let slot = done
            .seq
            .checked_sub(self.first_seq)
            .and_then(|i| self.outstanding.get_mut(i as usize))
            .and_then(Option::take)
            .ok_or_else(|| format!("response for unknown or answered request {}", done.seq))?;
        let latency = nanos(now - slot.due);
        self.stats.received += 1;
        match done.outcome {
            Outcome::Correct => {
                self.latencies_ns.push(latency);
                self.stats.hits += u64::from(done.hit);
                self.stats.slo_met += u64::from(latency <= done.slo_ns);
            }
            Outcome::Mismatch => {
                self.stats.failed += 1;
                self.stats.mismatched += 1;
            }
            Outcome::Refused => self.stats.failed += 1,
        }
        if self.trace {
            self.stats
                .spans
                .push([slot.due, slot.submit.0, slot.submit.1, now]);
        }
        Ok(true)
    }

    fn finish(mut self, started: Instant) -> LoopStats {
        self.stats.elapsed = started.elapsed();
        self.latencies_ns.sort_unstable();
        self.stats.p50_ns = tempus_serve::percentile(&self.latencies_ns, 50.0);
        self.stats.p99_ns = tempus_serve::percentile(&self.latencies_ns, 99.0);
        self.stats
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Closed loop: keeps `window` requests outstanding, sending the next
/// input of `order` as soon as a response frees a slot. Request `i`
/// goes out under sequence number `first_seq + i`.
pub fn closed_loop<E: Endpoint>(
    endpoint: &mut E,
    order: &[usize],
    first_seq: u64,
    window: usize,
    trace: bool,
) -> Result<LoopStats, String> {
    let mut client = Client::new(endpoint, order, first_seq, trace);
    let started = Instant::now();
    let mut freed = started;
    while client.stats.received < order.len() as u64 {
        while client.stats.sent < order.len() as u64
            && client.stats.sent - client.stats.received < window.max(1) as u64
        {
            client.send(freed)?;
        }
        if !client.receive(RESPONSE_TIMEOUT)? {
            return Err(format!("no response within {RESPONSE_TIMEOUT:?}"));
        }
        freed = Instant::now();
    }
    Ok(client.finish(started))
}

/// Open loop: sends input `order[i]` when `due_ns[i]` has passed since
/// the start, whether or not earlier requests have been answered, and
/// times each request from when it was due.
pub fn open_loop<E: Endpoint>(
    endpoint: &mut E,
    order: &[usize],
    due_ns: &[u64],
    first_seq: u64,
    trace: bool,
) -> Result<LoopStats, String> {
    assert_eq!(order.len(), due_ns.len(), "one due time per request");
    let mut client = Client::new(endpoint, order, first_seq, trace);
    let started = Instant::now();
    let n = order.len() as u64;
    while client.stats.received < n {
        let now = Instant::now();
        if client.stats.sent < n {
            let due = started + Duration::from_nanos(due_ns[client.stats.sent as usize]);
            if due <= now {
                client.send(due)?;
                continue;
            }
            client.receive(due - now)?;
        } else if !client.receive(RESPONSE_TIMEOUT)? {
            return Err(format!("no response within {RESPONSE_TIMEOUT:?}"));
        }
    }
    Ok(client.finish(started))
}

/// Host CPU time stolen from this machine (`steal` in `/proc/stat`)
/// and all CPU time, in clock ticks, summed over CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Linux `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread to CPU `cpu` (below 1024); threads it
/// spawns afterwards inherit the restriction. Returns `false`, leaving
/// the affinity unchanged, when the kernel refuses: the CPU does not
/// exist or is outside the process's allowed set.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` points to a live `CpuSet` whose layout matches the
    // kernel's `cpu_set_t`, and `cpusetsize` is its exact size; pid 0
    // names the calling thread. The call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the run measured, read from `.git/HEAD` without any git
/// tooling; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git_rev`, build profile and core count, stamped on every output.
pub fn stamp() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!("git_rev={} profile={profile} nproc={nproc}", git_rev())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let passes = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(quantile(&passes, 0.25), 2.0);
        assert_eq!(quantile(&passes, 0.75), 6.0);
        assert_eq!(quantile(&[5.0], 0.25), 5.0);
        assert_eq!(quantile(&[], 0.75), 0.0);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["setup_s", "p99_us", "runtime.content_key_us", "9x", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "Mcycles/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn report_json_keeps_every_digit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("latency_ms", "ms", 1.203_456_789_012_3, 3);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}}"
        );
    }

    /// Answers requests in a scrambled order, one per `recv`.
    struct Fake {
        queued: VecDeque<u64>,
        most_outstanding: usize,
        fail_every: u64,
    }

    impl Endpoint for Fake {
        fn send(&mut self, seq: u64, _input: usize) -> Result<(Instant, Instant), String> {
            self.queued.push_back(seq);
            self.most_outstanding = self.most_outstanding.max(self.queued.len());
            let now = Instant::now();
            Ok((now, now))
        }

        fn recv(&mut self, _timeout: Duration) -> Option<Completion> {
            if self.queued.len() > 1 {
                self.queued.rotate_left(1);
            }
            let seq = self.queued.pop_front()?;
            Some(Completion {
                seq,
                outcome: if (seq + 1) % self.fail_every == 0 {
                    Outcome::Mismatch
                } else {
                    Outcome::Correct
                },
                hit: false,
                slo_ns: u64::MAX,
            })
        }
    }

    #[test]
    fn closed_loop_receives_what_it_sends_within_its_window() {
        let order: Vec<usize> = (0..101).collect();
        let mut fake = Fake {
            queued: VecDeque::new(),
            most_outstanding: 0,
            fail_every: 10,
        };
        let s = closed_loop(&mut fake, &order, 1000, 7, true).unwrap();
        assert_eq!(s.sent, 101);
        assert_eq!(s.received, s.sent);
        assert_eq!(s.spans.len(), 101);
        assert_eq!(s.failed, 10, "seq 1009, 1019, ..., 1099");
        assert_eq!(s.mismatched, 10);
        assert_eq!(s.slo_met, 91);
        assert!(fake.most_outstanding <= 7);
        assert!(fake.queued.is_empty());
    }

    #[test]
    fn open_loop_receives_what_it_sends() {
        let order: Vec<usize> = (0..50).collect();
        let due: Vec<u64> = (0..50).map(|i| i * 10_000).collect();
        let mut fake = Fake {
            queued: VecDeque::new(),
            most_outstanding: 0,
            fail_every: u64::MAX,
        };
        let s = open_loop(&mut fake, &order, &due, 0, false).unwrap();
        assert_eq!(s.sent, 50);
        assert_eq!(s.received, 50);
        assert_eq!(s.failed, 0);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn a_response_for_an_unsent_request_is_an_error() {
        struct Stray;
        impl Endpoint for Stray {
            fn send(&mut self, _: u64, _: usize) -> Result<(Instant, Instant), String> {
                let now = Instant::now();
                Ok((now, now))
            }
            fn recv(&mut self, _: Duration) -> Option<Completion> {
                Some(Completion {
                    seq: 99,
                    outcome: Outcome::Correct,
                    hit: false,
                    slo_ns: 0,
                })
            }
        }
        assert!(closed_loop(&mut Stray, &[0, 1], 0, 2, false).is_err());
    }
}
