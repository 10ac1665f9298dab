//! The original unblocked element-at-a-time kernels, kept verbatim as the
//! bit-exactness oracle for the fast kernels: property tests pin every
//! fast kernel (the blocked scalar ones and the lane-major conv) to these,
//! bit for bit, across the zoo networks and randomized geometries.
//!
//! Test code only. grt-gpu's unit tests include it as `shader::reference`
//! and the root package's `tests/fastpath.rs` includes it by path; either
//! includer has `ConvParams` and `PoolKind` in scope.

#![allow(dead_code)]

use super::{ConvParams, PoolKind};

/// Scalar 2-D convolution + bias (the pre-fast-path loop, verbatim).
pub fn conv2d(input: &[f32], weights: &[f32], bias: &[f32], p: &ConvParams) -> Vec<f32> {
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
                            let iv = input[ic * (p.in_h * p.in_w) as usize
                                + iy as usize * p.in_w as usize
                                + ix as usize];
                            let wv = weights[oc * (p.in_c * p.k * p.k) as usize
                                + ic * (p.k * p.k) as usize
                                + ky * p.k as usize
                                + kx];
                            acc += iv * wv;
                        }
                    }
                }
                out[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    out
}

/// Scalar dense matmul + bias (j-inner loop, verbatim).
pub fn matmul(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = bias[j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Scalar pooling computing both max and sum per window (verbatim).
#[allow(clippy::too_many_arguments)]
pub fn pool(
    input: &[f32],
    kind: PoolKind,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
) -> Vec<f32> {
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = vec![0.0f32; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                for ky in 0..k {
                    for kx in 0..k {
                        let v = input[ch * h * w + (oy * stride + ky) * w + ox * stride + kx];
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

/// Scalar ReLU.
pub fn relu(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// Scalar elementwise add.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Scalar softmax (max-subtracted, verbatim).
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}
