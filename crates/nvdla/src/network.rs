//! Multi-layer network execution on a convolution core.
//!
//! The paper's integration argument (§I contribution 2) is that Tempus
//! Core preserves NVDLA's software view: a network that ran on the
//! binary CC runs unchanged on Tempus Core. This module provides that
//! software view — a layer list (convolution + SDP requantization +
//! optional PDP pooling) executed against any [`ConvCore`], with
//! per-layer statistics.

use tempus_arith::IntPrecision;

use crate::conv::ConvParams;
use crate::cube::{DataCube, KernelSet};
use crate::pdp::{self, PoolParams};
use crate::pipeline::ConvCore;
use crate::sdp::{self, SdpConfig};
use crate::NvdlaError;

/// One network layer: convolution, requantization, optional pooling.
#[derive(Debug, Clone)]
pub struct NetworkLayer {
    /// Layer name for reporting.
    pub name: String,
    /// Convolution kernels.
    pub kernels: KernelSet,
    /// Convolution parameters.
    pub conv: ConvParams,
    /// Post-processing (bias/scale/ReLU/saturation).
    pub sdp: SdpConfig,
    /// Optional pooling after requantization.
    pub pool: Option<PoolParams>,
}

impl NetworkLayer {
    /// A convolution + ReLU + INT8 requantization layer with a given
    /// right-shift (the common CNN block).
    #[must_use]
    pub fn conv_relu(
        name: impl Into<String>,
        kernels: KernelSet,
        conv: ConvParams,
        shift: u32,
        precision: IntPrecision,
    ) -> Self {
        let channels = kernels.k();
        NetworkLayer {
            name: name.into(),
            kernels,
            conv,
            sdp: SdpConfig {
                shift,
                ..SdpConfig::relu(channels, precision)
            },
            pool: None,
        }
    }

    /// Adds pooling (builder style).
    #[must_use]
    pub fn with_pool(mut self, pool: PoolParams) -> Self {
        self.pool = Some(pool);
        self
    }
}

/// Per-layer execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Convolution-core cycles.
    pub cycles: u64,
    /// Datapath utilization during the layer.
    pub utilization: f64,
    /// Elements rectified by ReLU.
    pub rectified: u64,
    /// Elements clipped by output saturation.
    pub saturated: u64,
    /// Output shape after this layer `(w, h, c)`.
    pub output_shape: (usize, usize, usize),
}

/// Result of a network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRun {
    /// Final output cube.
    pub output: DataCube,
    /// Per-layer traces in execution order.
    pub layers: Vec<LayerTrace>,
}

impl NetworkRun {
    /// Total convolution cycles across layers.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Wall-clock time at the paper's 250 MHz clock, in microseconds.
    #[must_use]
    pub fn total_time_us(&self) -> f64 {
        self.total_cycles() as f64 * 4.0e-3
    }
}

/// Executes `layers` in sequence on `core`, threading each layer's
/// requantized output into the next layer's input.
///
/// # Errors
///
/// Propagates shape/precision/capacity errors from the substrate; the
/// partially executed prefix is discarded.
pub fn run_network(
    core: &mut dyn ConvCore,
    input: &DataCube,
    layers: &[NetworkLayer],
) -> Result<NetworkRun, NvdlaError> {
    let mut x = input.clone();
    let mut traces = Vec::with_capacity(layers.len());
    for layer in layers {
        let run = core.convolve(&x, &layer.kernels, &layer.conv)?;
        let (requant, sdp_stats) = sdp::apply(&run.output, &layer.sdp)?;
        let out = match &layer.pool {
            Some(pool) => pdp::apply(&requant, pool)?,
            None => requant,
        };
        traces.push(LayerTrace {
            name: layer.name.clone(),
            cycles: run.stats.cycles,
            utilization: run.stats.utilization,
            rectified: sdp_stats.rectified,
            saturated: sdp_stats.saturated,
            output_shape: (out.w(), out.h(), out.c()),
        });
        x = out;
    }
    Ok(NetworkRun {
        output: x,
        layers: traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NvdlaConfig;
    use crate::pipeline::NvdlaConvCore;

    fn tiny_network() -> Vec<NetworkLayer> {
        let k1 = KernelSet::from_fn(8, 3, 3, 4, |k, r, s, c| ((k + r + s + c) % 9) as i32 - 4);
        let k2 = KernelSet::from_fn(4, 1, 1, 8, |k, _, _, c| ((k * 3 + c) % 9) as i32 - 4);
        vec![
            NetworkLayer::conv_relu(
                "conv1",
                k1,
                ConvParams::unit_stride_same(3),
                4,
                IntPrecision::Int8,
            )
            .with_pool(PoolParams::max(2)),
            NetworkLayer::conv_relu("conv2", k2, ConvParams::valid(), 4, IntPrecision::Int8),
        ]
    }

    #[test]
    fn network_runs_and_traces() {
        let input = DataCube::from_fn(8, 8, 4, |x, y, c| ((x * 5 + y * 3 + c) % 100) as i32 - 50);
        let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small());
        let run = run_network(&mut core, &input, &tiny_network()).unwrap();
        assert_eq!(run.layers.len(), 2);
        assert_eq!(run.layers[0].output_shape, (4, 4, 8));
        assert_eq!(run.layers[1].output_shape, (4, 4, 4));
        assert_eq!(run.output.c(), 4);
        assert!(run.total_cycles() > 0);
        assert!(run.total_time_us() > 0.0);
    }

    #[test]
    fn shape_errors_propagate() {
        // Second layer expects 8 channels; feed a 3-channel input so
        // the first conv itself mismatches.
        let input = DataCube::zeros(8, 8, 3);
        let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small());
        assert!(matches!(
            run_network(&mut core, &input, &tiny_network()),
            Err(NvdlaError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn relu_counts_appear_in_trace() {
        let input = DataCube::from_fn(6, 6, 4, |x, _, _| x as i32 - 3);
        let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small());
        let run = run_network(&mut core, &input, &tiny_network()).unwrap();
        assert!(run.layers.iter().any(|l| l.rectified > 0));
    }
}
