//! Inference jobs and their results.

use std::fmt;

use tempus_core::gemm::Matrix;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::network::NetworkLayer;

/// What a job computes.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// One convolution layer.
    Conv {
        /// Input feature cube.
        features: DataCube,
        /// Kernel weights.
        kernels: KernelSet,
        /// Convolution parameters.
        params: ConvParams,
    },
    /// One dense matrix product (the tuGEMM/tubGEMM workload shape).
    Gemm {
        /// Left operand (binary-held).
        a: Matrix,
        /// Right operand (temporally streamed).
        b: Matrix,
    },
    /// A whole network: convolution + SDP requantization (+ optional
    /// pooling) per layer.
    Network {
        /// Network input cube.
        input: DataCube,
        /// Layers in execution order.
        layers: Vec<NetworkLayer>,
    },
}

impl JobPayload {
    /// Short payload-kind tag for reporting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobPayload::Conv { .. } => "conv",
            JobPayload::Gemm { .. } => "gemm",
            JobPayload::Network { .. } => "network",
        }
    }
}

/// One unit of work submitted to the engine.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-assigned id; results are returned sorted by it.
    pub id: u64,
    /// Human-readable label for reports.
    pub name: String,
    /// The computation.
    pub payload: JobPayload,
}

impl Job {
    /// Builds a convolution job.
    #[must_use]
    pub fn conv(
        id: u64,
        name: impl Into<String>,
        features: DataCube,
        kernels: KernelSet,
        params: ConvParams,
    ) -> Self {
        Job {
            id,
            name: name.into(),
            payload: JobPayload::Conv {
                features,
                kernels,
                params,
            },
        }
    }

    /// Builds a GEMM job.
    #[must_use]
    pub fn gemm(id: u64, name: impl Into<String>, a: Matrix, b: Matrix) -> Self {
        Job {
            id,
            name: name.into(),
            payload: JobPayload::Gemm { a, b },
        }
    }

    /// Builds a whole-network job.
    #[must_use]
    pub fn network(
        id: u64,
        name: impl Into<String>,
        input: DataCube,
        layers: Vec<NetworkLayer>,
    ) -> Self {
        Job {
            id,
            name: name.into(),
            payload: JobPayload::Network { input, layers },
        }
    }

    /// Content-addressed key over everything that determines the
    /// job's output: inputs, weights and parameters — id and name are
    /// excluded, so two requests for the same computation share a key.
    /// The serving layer (`tempus-serve`) uses this to memoize results
    /// above the backend layer.
    ///
    /// The key is a word-wise hash (see `KeyHasher`) over a
    /// payload-kind tag, every tensor's dimensions and elements, and
    /// the small FNV-1a parameter digests. It is an internal cache key,
    /// not an output digest: outputs stay on FNV-1a
    /// ([`JobOutput::digest`]) so they compare across backends and
    /// releases.
    #[must_use]
    pub fn content_key(&self) -> u64 {
        match &self.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => {
                let mut h = KeyHasher::new(1);
                h.cube(features);
                h.kernels(kernels);
                h.word(params.content_hash());
                h.finish()
            }
            JobPayload::Gemm { a, b } => {
                let mut h = KeyHasher::new(2);
                h.matrix(a);
                h.matrix(b);
                h.finish()
            }
            JobPayload::Network { input, layers } => {
                let mut h = KeyHasher::new(3);
                h.cube(input);
                h.word(layers.len() as u64);
                for layer in layers {
                    h.kernels(&layer.kernels);
                    h.word(layer.conv.content_hash());
                    h.word(layer.sdp.content_hash());
                    h.word(layer.pool.map_or(0, |p| p.content_hash().max(1)));
                }
                h.finish()
            }
        }
    }
}

const KEY_P1: u64 = 0x9E37_79B1_85EB_CA87;
const KEY_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const KEY_P3: u64 = 0x1656_67B1_9E37_79F9;
const KEY_P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// Word-wise hasher behind [`Job::content_key`].
///
/// Tensor elements are packed two `i32`s per `u64` word and mixed in
/// four independent lanes — each step a multiply, a rotate and a
/// multiply (the xxHash64 round) — so the lanes' dependency chains
/// overlap instead of serializing one multiply per byte as FNV-1a
/// does. Dimensions and parameter digests go through lane 0 ahead of
/// the data they describe, which makes the word stream decode
/// uniquely. `finish` folds the lanes and applies the fmix64
/// avalanche. Every round and the fold are bijective in each lane, so
/// changing any single element always changes the key.
struct KeyHasher {
    lanes: [u64; 4],
}

#[inline(always)]
fn key_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(KEY_P2))
        .rotate_left(31)
        .wrapping_mul(KEY_P1)
}

#[inline(always)]
fn pack(lo: i32, hi: i32) -> u64 {
    u64::from(lo as u32) | (u64::from(hi as u32) << 32)
}

impl KeyHasher {
    fn new(tag: u64) -> Self {
        let mut h = KeyHasher {
            lanes: [KEY_P1.wrapping_add(KEY_P2), KEY_P2, KEY_P3, KEY_P4],
        };
        h.word(tag);
        h
    }

    fn word(&mut self, word: u64) {
        self.lanes[0] = key_round(self.lanes[0], word);
    }

    fn cube(&mut self, cube: &DataCube) {
        self.tensor(&[cube.w(), cube.h(), cube.c()], cube.as_slice());
    }

    fn kernels(&mut self, kernels: &KernelSet) {
        self.tensor(
            &[kernels.k(), kernels.r(), kernels.s(), kernels.c()],
            kernels.as_slice(),
        );
    }

    fn matrix(&mut self, m: &Matrix) {
        self.tensor(&[m.rows(), m.cols()], m.as_slice());
    }

    fn tensor(&mut self, dims: &[usize], data: &[i32]) {
        for &d in dims {
            self.word(d as u64);
        }
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut chunks = data.chunks_exact(8);
        for x in &mut chunks {
            a = key_round(a, pack(x[0], x[1]));
            b = key_round(b, pack(x[2], x[3]));
            c = key_round(c, pack(x[4], x[5]));
            d = key_round(d, pack(x[6], x[7]));
        }
        self.lanes = [a, b, c, d];
        for (lane, pair) in chunks.remainder().chunks(2).enumerate() {
            let word = pack(pair[0], pair.get(1).copied().unwrap_or(0));
            self.lanes[lane] = key_round(self.lanes[lane], word);
        }
    }

    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// A job's computed output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Output cube (conv and network jobs).
    Cube(DataCube),
    /// Output matrix (GEMM jobs).
    Matrix(Matrix),
}

impl JobOutput {
    /// Order-stable content digest, comparable across backends.
    #[must_use]
    pub fn digest(&self) -> u64 {
        match self {
            JobOutput::Cube(cube) => cube.content_hash(),
            JobOutput::Matrix(m) => m.content_hash(),
        }
    }
}

/// One executed job's result.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Id of the job this answers.
    pub job_id: u64,
    /// Job label.
    pub job_name: String,
    /// Payload-kind tag (`conv`/`gemm`/`network`).
    pub kind: &'static str,
    /// The computed output.
    pub output: JobOutput,
    /// Modelled job latency in datapath cycles (simulated or
    /// closed-form, per backend); on a multi-array backend, the
    /// sharded critical path.
    pub sim_cycles: u64,
    /// Array-cycles summed over every shard (equals `sim_cycles` on a
    /// single array); energy scales with this.
    pub total_array_cycles: u64,
    /// PE arrays the job occupied (1 on single-array backends).
    pub shards: usize,
    /// Work balance across the arrays (1.0 when single-array or
    /// perfectly balanced).
    pub shard_utilization: f64,
    /// Arrays the scheduler requested for the job (the cost-aware
    /// width, or the full configured width under the all-arrays
    /// policy).
    pub arrays_requested: usize,
    /// Arrays the array-slot ledger granted — the width the backend
    /// executed with. Equals `arrays_requested` except when the
    /// ledger shrank the grant to start the job on idle arrays.
    pub arrays_granted: usize,
    /// Device cycles the job waited past the earliest free array to
    /// gather its granted set (0 without co-scheduling).
    pub array_wait_cycles: u64,
    /// Modelled energy at the executed frequency level, in pJ
    /// (`dynamic_energy_pj + static_energy_pj`).
    pub energy_pj: f64,
    /// Dynamic (switching) share of `energy_pj` — scales with the
    /// square of the supply voltage under DVFS.
    pub dynamic_energy_pj: f64,
    /// Static (leakage) share of `energy_pj`, charged on the busy
    /// wall window — stretches with the period under DVFS.
    pub static_energy_pj: f64,
    /// DVFS ladder level the job's arrays ran at (0 = nominal
    /// 250 MHz; always 0 with the frequency governor off).
    pub freq_level: u8,
    /// Host wall-clock spent executing the job, in nanoseconds.
    pub wall_ns: u64,
    /// Which worker ran it.
    pub worker: usize,
    /// Per-shard busy cycles, shard order (empty when the run was not
    /// sharded) — the telemetry layer renders these as per-array
    /// spans on the device timeline.
    pub per_shard_cycles: Vec<u64>,
    /// Cycles of the cross-array reduction stage within `sim_cycles`.
    pub reduction_cycles: u64,
    /// Window-batch cycles from `TempusStats` (cycle-accurate Tempus
    /// conv paths only).
    pub window_cycles: u64,
    /// Peak streaming-scratch high-water mark in elements (0 on
    /// materialized runs — non-zero only when the backend executed
    /// the job in streaming mode).
    pub peak_scratch_elems: u64,
}

impl fmt::Display for JobResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} [{}] {}: {} cycles, {:.1} pJ, worker {}",
            self.job_id, self.kind, self.job_name, self.sim_cycles, self.energy_pj, self.worker
        )?;
        if self.shards > 1 {
            write!(
                f,
                ", {} arrays ({:.0}% balanced)",
                self.shards,
                self.shard_utilization * 100.0
            )?;
        }
        if self.arrays_granted < self.arrays_requested {
            write!(
                f,
                ", granted {}/{} arrays",
                self.arrays_granted, self.arrays_requested
            )?;
        }
        if self.array_wait_cycles > 0 {
            write!(f, ", waited {} cycles for arrays", self.array_wait_cycles)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_arith::IntPrecision;

    fn ramp(n: usize, seed: usize) -> Vec<i32> {
        (0..n)
            .map(|i| ((i * 37 + seed) % 256) as i32 - 128)
            .collect()
    }

    fn cube(w: usize, h: usize, c: usize, data: &[i32]) -> DataCube {
        DataCube::from_vec(w, h, c, data.to_vec()).unwrap()
    }

    fn kernels(k: usize, r: usize, s: usize, c: usize, data: &[i32]) -> KernelSet {
        let mut next = data.iter().copied();
        let set = KernelSet::from_fn(k, r, s, c, |_, _, _, _| next.next().unwrap());
        assert_eq!(set.as_slice(), data, "from_fn fills in flat order");
        set
    }

    fn matrix(rows: usize, cols: usize, data: &[i32]) -> Matrix {
        let m = Matrix::from_fn(rows, cols, |r, c| data[r * cols + c]);
        assert_eq!(m.as_slice(), data);
        m
    }

    /// Job builders over flat tensors, with each tensor's length. The
    /// odd sizes exercise the packed tail as well as the four-lane body.
    type Builder = fn(&[Vec<i32>]) -> Job;
    const JOBS: [(Builder, &[usize]); 3] = [
        (
            |t| {
                let (f, k) = (cube(7, 5, 3, &t[0]), kernels(5, 3, 3, 3, &t[1]));
                Job::conv(0, "conv", f, k, ConvParams::valid())
            },
            &[105, 135],
        ),
        (
            |t| Job::gemm(0, "gemm", matrix(3, 9, &t[0]), matrix(9, 5, &t[1])),
            &[27, 45],
        ),
        (
            |t| {
                let layer = |name, k| {
                    NetworkLayer::conv_relu(name, k, ConvParams::valid(), 2, IntPrecision::Int8)
                };
                let layers = vec![
                    layer("l0", kernels(4, 3, 3, 3, &t[1])),
                    layer("l1", kernels(3, 1, 1, 4, &t[2])),
                ];
                Job::network(0, "net", cube(6, 5, 3, &t[0]), layers)
            },
            &[90, 108, 12],
        ),
    ];

    fn tensors(lens: &[usize]) -> Vec<Vec<i32>> {
        lens.iter().enumerate().map(|(i, &n)| ramp(n, i)).collect()
    }

    #[test]
    fn key_ignores_id_and_name_but_not_content() {
        for (build, lens) in JOBS {
            let job = build(&tensors(lens));
            let mut other = job.clone();
            other.id = 99;
            other.name = "renamed".into();
            if let JobPayload::Network { layers, .. } = &mut other.payload {
                layers[0].name = "renamed-layer".into();
            }
            assert_eq!(job.content_key(), other.content_key());
        }
    }

    #[test]
    fn flipping_any_single_element_changes_the_key() {
        for (build, lens) in JOBS {
            let base = tensors(lens);
            let key = build(&base).content_key();
            for t in 0..base.len() {
                for i in 0..base[t].len() {
                    for delta in [1, 256, i32::MIN] {
                        let mut flipped = base.clone();
                        flipped[t][i] ^= delta;
                        let job = build(&flipped);
                        assert_ne!(
                            job.content_key(),
                            key,
                            "{} tensor {t} element {i} ^ {delta:#x}",
                            job.payload.kind()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_dimensions_over_the_same_data_change_the_key() {
        let (a, b) = (ramp(16, 3), ramp(16, 5));
        let gemm = Job::gemm(0, "gemm", matrix(2, 8, &a), matrix(8, 2, &b));
        let transposed = Job::gemm(0, "gemm", matrix(8, 2, &a), matrix(2, 8, &b));
        assert_ne!(gemm.content_key(), transposed.content_key());

        let (f, k) = (ramp(105, 1), ramp(135, 2));
        let conv = |w, h| {
            let kernels = kernels(5, 3, 3, 3, &k);
            Job::conv(0, "conv", cube(w, h, 3, &f), kernels, ConvParams::valid())
        };
        assert_ne!(conv(7, 5).content_key(), conv(5, 7).content_key());
    }

    #[test]
    fn conv_and_gemm_over_the_same_bytes_have_different_keys() {
        let (x, y) = (ramp(16, 9), ramp(16, 11));
        let conv = Job::conv(
            0,
            "conv",
            cube(2, 1, 8, &x),
            kernels(2, 1, 1, 8, &y),
            ConvParams::valid(),
        );
        let gemm = Job::gemm(0, "gemm", matrix(2, 8, &x), matrix(8, 2, &y));
        assert_ne!(conv.content_key(), gemm.content_key());
    }
}
