//! CPU reference inference and deterministic weight generation.
//!
//! Replay correctness (§2.3 "independence of input") is validated by
//! comparing the GPU pipeline's output — native, record dry-run, or replay
//! with injected input — against this straightforward CPU implementation
//! using the same deterministically generated weights.

use crate::spec::{LayerOp, NetworkSpec};
use grt_gpu::PoolKind;
use grt_sim::Rng;

/// Deterministic weights for layer `layer_idx` of `net_name`.
///
/// Both the runtime (when populating GPU weight buffers) and the reference
/// net call this, so the two computations share parameters exactly.
pub fn weights_for_layer(net_name: &str, layer_idx: usize, len: usize) -> Vec<f32> {
    let seed = fxhash(net_name) ^ (layer_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = Rng::new(seed);
    let scale = 1.0 / (len as f32).sqrt().max(1.0);
    (0..len)
        .map(|_| rng.gen_f32_range(-1.0, 1.0) * scale)
        .collect()
}

/// Deterministic biases for layer `layer_idx` of `net_name`.
pub fn biases_for_layer(net_name: &str, layer_idx: usize, len: usize) -> Vec<f32> {
    let seed = fxhash(net_name) ^ 0xB1A5 ^ (layer_idx as u64).wrapping_mul(0xD605_1A2B_95C4_13D1);
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.gen_f32_range(-0.1, 0.1)).collect()
}

/// Generates the real model parameters for `spec` in recording slot order
/// (weights then bias per layer, empty buffers omitted) — the data the app
/// provides inside the TEE at replay time.
pub fn workload_weights(spec: &NetworkSpec) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    for (idx, layer) in spec.layers.iter().enumerate() {
        let wl = layer.op.weight_len() as usize;
        let bl = layer.op.bias_len() as usize;
        if wl > 0 {
            out.push(weights_for_layer(spec.name, idx, wl));
        }
        if bl > 0 {
            out.push(biases_for_layer(spec.name, idx, bl));
        }
    }
    out
}

/// A deterministic test input for a network.
pub fn test_input(net: &NetworkSpec, variant: u64) -> Vec<f32> {
    let mut rng = Rng::new(fxhash(net.name) ^ 0x1279 ^ variant);
    (0..net.input_len as usize)
        .map(|_| rng.gen_f32_range(0.0, 1.0))
        .collect()
}

fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The CPU reference executor for a [`NetworkSpec`].
#[derive(Debug)]
pub struct ReferenceNet {
    spec: NetworkSpec,
}

impl ReferenceNet {
    /// Wraps a spec for reference execution.
    pub fn new(spec: NetworkSpec) -> Self {
        ReferenceNet { spec }
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Runs forward inference on `input`, returning the output vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the spec (this is test
    /// infrastructure; shape errors are programmer errors).
    pub fn infer(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.spec.input_len as usize, "input length");
        let mut cur = input.to_vec();
        let mut skip: Vec<f32> = Vec::new();
        for (idx, layer) in self.spec.layers.iter().enumerate() {
            cur = match &layer.op {
                LayerOp::Conv { p, relu } => {
                    let w = weights_for_layer(self.spec.name, idx, layer.op.weight_len() as usize);
                    let b = biases_for_layer(self.spec.name, idx, layer.op.bias_len() as usize);
                    let mut out = conv2d(&cur, &w, &b, p);
                    if *relu {
                        relu_inplace(&mut out);
                    }
                    out
                }
                LayerOp::Fc {
                    in_dim,
                    out_dim,
                    relu,
                } => {
                    let w = weights_for_layer(self.spec.name, idx, (*in_dim * *out_dim) as usize);
                    let b = biases_for_layer(self.spec.name, idx, *out_dim as usize);
                    let mut out = vec![0.0f32; *out_dim as usize];
                    for (j, o) in out.iter_mut().enumerate() {
                        let mut acc = b[j];
                        for (i, x) in cur.iter().enumerate() {
                            acc += x * w[i * *out_dim as usize + j];
                        }
                        *o = acc;
                    }
                    if *relu {
                        relu_inplace(&mut out);
                    }
                    out
                }
                LayerOp::Pool {
                    kind,
                    c,
                    h,
                    w,
                    k,
                    stride,
                } => pool2d(&cur, *kind, *c, *h, *w, *k, *stride),
                LayerOp::Add { len } => {
                    assert_eq!(skip.len(), *len as usize, "skip length");
                    let mut out: Vec<f32> = cur.iter().zip(&skip).map(|(a, b)| a + b).collect();
                    relu_inplace(&mut out);
                    out
                }
                LayerOp::Softmax { .. } => {
                    let max = cur.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let exps: Vec<f32> = cur.iter().map(|v| (v - max).exp()).collect();
                    let sum: f32 = exps.iter().sum();
                    exps.iter().map(|e| e / sum).collect()
                }
            };
            if layer.save_skip {
                skip = cur.clone();
            }
        }
        cur
    }
}

fn relu_inplace(v: &mut [f32]) {
    for x in v.iter_mut() {
        *x = x.max(0.0);
    }
}

fn conv2d(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    p: &grt_gpu::shader::ConvParams,
) -> Vec<f32> {
    let (oh, ow) = (p.out_h() as usize, p.out_w() as usize);
    let mut out = vec![0.0f32; p.out_c as usize * oh * ow];
    for oc in 0..p.out_c as usize {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[oc];
                for ic in 0..p.in_c as usize {
                    for ky in 0..p.k as usize {
                        for kx in 0..p.k as usize {
                            let iy = oy as i64 * p.stride as i64 + ky as i64 - p.pad as i64;
                            let ix = ox as i64 * p.stride as i64 + kx as i64 - p.pad as i64;
                            if iy < 0 || ix < 0 || iy >= p.in_h as i64 || ix >= p.in_w as i64 {
                                continue;
                            }
                            acc += input[ic * (p.in_h * p.in_w) as usize
                                + iy as usize * p.in_w as usize
                                + ix as usize]
                                * weights[oc * (p.in_c * p.k * p.k) as usize
                                    + ic * (p.k * p.k) as usize
                                    + ky * p.k as usize
                                    + kx];
                        }
                    }
                }
                out[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    out
}

fn pool2d(input: &[f32], kind: PoolKind, c: u32, h: u32, w: u32, k: u32, stride: u32) -> Vec<f32> {
    let oh = ((h - k) / stride + 1) as usize;
    let ow = ((w - k) / stride + 1) as usize;
    let mut out = vec![0.0f32; c as usize * oh * ow];
    for ch in 0..c as usize {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                for ky in 0..k as usize {
                    for kx in 0..k as usize {
                        let v = input[ch * (h * w) as usize
                            + (oy * stride as usize + ky) * w as usize
                            + ox * stride as usize
                            + kx];
                        best = best.max(v);
                        sum += v;
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = match kind {
                    PoolKind::Max => best,
                    PoolKind::Avg => sum / (k * k) as f32,
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn weights_are_deterministic() {
        let a = weights_for_layer("MNIST", 0, 100);
        let b = weights_for_layer("MNIST", 0, 100);
        assert_eq!(a, b);
        let c = weights_for_layer("MNIST", 1, 100);
        assert_ne!(a, c);
        let d = weights_for_layer("AlexNet", 0, 100);
        assert_ne!(a, d);
    }

    #[test]
    fn weights_are_bounded() {
        let w = weights_for_layer("VGG16", 3, 10_000);
        let scale = 1.0 / (10_000f32).sqrt();
        assert!(w.iter().all(|v| v.abs() <= scale));
    }

    #[test]
    fn all_networks_infer_to_probability_vectors() {
        for spec in zoo::all_benchmarks() {
            let reference = ReferenceNet::new(spec);
            let input = test_input(reference.spec(), 0);
            let out = reference.infer(&input);
            assert_eq!(out.len(), reference.spec().output_len as usize);
            let sum: f32 = out.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-4,
                "{}: softmax sum {sum}",
                reference.spec().name
            );
            assert!(out.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let reference = ReferenceNet::new(zoo::mnist());
        let a = reference.infer(&test_input(reference.spec(), 0));
        let b = reference.infer(&test_input(reference.spec(), 1));
        assert_ne!(a, b);
    }

    #[test]
    fn inference_is_deterministic() {
        let reference = ReferenceNet::new(zoo::squeezenet());
        let input = test_input(reference.spec(), 7);
        assert_eq!(reference.infer(&input), reference.infer(&input));
    }
}
