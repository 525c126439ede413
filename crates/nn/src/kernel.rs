//! Pluggable inference kernel backends — the compute layer under every
//! inference hot path.
//!
//! A neural controller spends its per-control-step inference in one dense
//! primitive: the matrix–vector product. This module makes that primitive a
//! *seam*: the [`Kernel`] trait names it, and the hot entry point above it,
//! [`DrivingPolicy::act_scratch_with`](crate::policy::DrivingPolicy::act_scratch_with),
//! is generic over an implementation and calls it once per layer. The bias
//! and `tanh` each layer applies after the product are the same code on
//! every backend.
//!
//! Two backends ship:
//!
//! * [`ScalarKernel`] — the plain loops the repo has always run. This is the
//!   **bit-exactness reference**: every other backend must reproduce its
//!   output to the last bit.
//! * [`BlockedKernel`] — register-blocked, unrolled, auto-vectorizer-friendly
//!   loops that process [`MR`] output rows at a time (each with its own
//!   accumulator chain) and step columns in [`NR`]-wide unrolled groups.
//!
//! # The ordering invariant
//!
//! A backend is only admissible if it performs, per output element, **the
//! same floating-point operations in the same order** as [`ScalarKernel`].
//! Floating-point addition is not associative, so this is the only way
//! "bit-identical across backends" can hold — and bit-identity is what the
//! whole distributed-sweep stack verifies against
//! (serial == threaded == multi-process == multi-host, see ARCHITECTURE.md).
//! [`BlockedKernel`] gets its speed from instruction-level parallelism
//! *across* rows (independent accumulator chains) while keeping each row's
//! accumulation strictly left-to-right — never from reassociating a sum.
//! The property tests in `crates/nn/tests/properties.rs` enforce this for
//! every backend in [`KernelBackend::ALL`].
//!
//! Dispatch is **monomorphized**: generics, not `dyn`, carry the backend
//! through the hot loop. The runtime-chosen [`KernelBackend`] enum lives at
//! the API boundary only (one `match` per episode in
//! `seo_core::runtime::RuntimeLoop::run_with`), so the per-step code the
//! optimizer sees is branch-free and inlinable.
//!
//! The backend book — contract, dispatch design, how to add a third backend,
//! and what is (not) measured of the two — is `docs/kernels.md` at the
//! repository root.
//!
//! # Example
//!
//! ```
//! use seo_nn::kernel::{BlockedKernel, Kernel, KernelBackend, ScalarKernel};
//!
//! // A row-major 2x3 matrix times a 3-vector.
//! let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
//! let x = [1.0, -1.0, 0.5];
//! let (mut scalar, mut blocked) = ([0.0; 2], [0.0; 2]);
//! ScalarKernel::matvec(3, &data, &x, &mut scalar);
//! BlockedKernel::matvec(3, &data, &x, &mut blocked);
//! // The backends are bit-identical, not merely close:
//! assert_eq!(scalar, blocked);
//!
//! // Runtime selection happens at the API boundary via the enum:
//! let backend = KernelBackend::parse("blocked")?;
//! assert_eq!(backend.name(), "blocked");
//! assert!(KernelBackend::parse("sse9").is_err()); // lists the valid names
//! # Ok::<(), seo_nn::kernel::UnknownKernelError>(())
//! ```

use std::fmt;

/// Rows per register block in [`BlockedKernel`]: four output elements are
/// accumulated concurrently, giving the CPU four independent dependency
/// chains while each chain stays in scalar order.
pub const MR: usize = 4;

/// Column unroll width in [`BlockedKernel`]: the column loop advances in
/// groups of four fixed-size chunks (bounds checks hoisted), with the adds
/// inside a group still applied strictly left-to-right.
pub const NR: usize = 4;

/// The dense primitive the inference hot path is built from.
///
/// Implementations are zero-sized marker types; call sites are generic over
/// the implementation (`fn f<K: Kernel>(…)`) so the backend monomorphizes
/// into the hot loop — no `dyn`, no per-call dispatch.
///
/// # Contract
///
/// An implementation must perform the same floating-point operations **in
/// the same order per output element** as [`ScalarKernel`], making its
/// output bit-identical. Degenerate shapes are defined, not UB: zero rows
/// is a no-op, zero columns writes `0.0` into every output element (the
/// empty sum). Dimension mismatches are caught by `debug_assert!` here;
/// the policy's layer shapes are fixed.
pub trait Kernel: Copy + Default + Send + Sync + 'static {
    /// Backend name as it appears in plan files (`exec.kernel`).
    const NAME: &'static str;

    /// Dense matrix–vector product: `out[r] = Σ_k data[r·cols + k] · x[k]`,
    /// summed left-to-right per row. `data` is row-major with
    /// `out.len()` rows and `cols` columns.
    fn matvec(cols: usize, data: &[f64], x: &[f64], out: &mut [f64]);
}

#[inline]
fn debug_check_matvec(cols: usize, data: &[f64], x: &[f64], out: &[f64]) {
    debug_assert_eq!(x.len(), cols, "kernel matvec: x length mismatch");
    debug_assert_eq!(
        data.len(),
        out.len() * cols,
        "kernel matvec: data length mismatch"
    );
}

/// The reference backend: the plain scalar loops every other backend must
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarKernel;

impl Kernel for ScalarKernel {
    const NAME: &'static str = "scalar";

    fn matvec(cols: usize, data: &[f64], x: &[f64], out: &mut [f64]) {
        debug_check_matvec(cols, data, x, out);
        if cols == 0 {
            out.fill(0.0);
            return;
        }
        for (o, row) in out.iter_mut().zip(data.chunks_exact(cols)) {
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

/// Register-blocked, unrolled backend.
///
/// `matvec` walks the output in blocks of [`MR`] rows. Within a block the
/// four rows' accumulators are updated together column-group by
/// column-group, so the CPU sees four independent add chains (ILP) and the
/// input vector `x` is reused [`MR`] times per cache pass — while each
/// individual accumulator still receives its products strictly
/// left-to-right, which keeps the result bit-identical to [`ScalarKernel`].
/// The column loop advances in [`NR`]-wide fixed-size chunks
/// (`chunks_exact`), letting the compiler hoist bounds checks and keep the
/// block in registers; leftover rows and columns fall back to the scalar
/// pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockedKernel;

impl BlockedKernel {
    /// One row's tail: continue `acc` over `row`/`x` in scalar order.
    #[inline]
    fn row_tail(acc: f64, row: &[f64], x: &[f64]) -> f64 {
        row.iter().zip(x).fold(acc, |acc, (a, b)| acc + a * b)
    }

    /// Dot product of one full row in scalar order (used for the < MR
    /// leftover rows).
    #[inline]
    fn row_dot(row: &[f64], x: &[f64]) -> f64 {
        Self::row_tail(0.0, row, x)
    }

    /// Accumulates one block of [`MR`] rows against `x`, returning the four
    /// row sums. Each accumulator's adds are applied strictly left-to-right.
    #[inline]
    fn block_dot(cols: usize, block: &[f64], x: &[f64]) -> [f64; MR] {
        let (r0, rest) = block.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut xc = x.chunks_exact(NR);
        let mut c0 = r0.chunks_exact(NR);
        let mut c1 = r1.chunks_exact(NR);
        let mut c2 = r2.chunks_exact(NR);
        let mut c3 = r3.chunks_exact(NR);
        for ((((xk, k0), k1), k2), k3) in (&mut xc)
            .zip(&mut c0)
            .zip(&mut c1)
            .zip(&mut c2)
            .zip(&mut c3)
        {
            // Four independent accumulator chains; within each chain the
            // adds stay in column order, so every row sum is the scalar sum.
            a0 = (((a0 + k0[0] * xk[0]) + k0[1] * xk[1]) + k0[2] * xk[2]) + k0[3] * xk[3];
            a1 = (((a1 + k1[0] * xk[0]) + k1[1] * xk[1]) + k1[2] * xk[2]) + k1[3] * xk[3];
            a2 = (((a2 + k2[0] * xk[0]) + k2[1] * xk[1]) + k2[2] * xk[2]) + k2[3] * xk[3];
            a3 = (((a3 + k3[0] * xk[0]) + k3[1] * xk[1]) + k3[2] * xk[2]) + k3[3] * xk[3];
        }
        let xt = xc.remainder();
        [
            Self::row_tail(a0, c0.remainder(), xt),
            Self::row_tail(a1, c1.remainder(), xt),
            Self::row_tail(a2, c2.remainder(), xt),
            Self::row_tail(a3, c3.remainder(), xt),
        ]
    }

    /// Accumulates a block of two rows (the leftover path for matrices with
    /// `rows % MR >= 2`, and the whole of a 2-row matrix such as a policy
    /// head): two independent chains, each in scalar order.
    #[inline]
    fn pair_dot(r0: &[f64], r1: &[f64], x: &[f64]) -> [f64; 2] {
        let (mut a0, mut a1) = (0.0f64, 0.0f64);
        let mut xc = x.chunks_exact(NR);
        let mut c0 = r0.chunks_exact(NR);
        let mut c1 = r1.chunks_exact(NR);
        for ((xk, k0), k1) in (&mut xc).zip(&mut c0).zip(&mut c1) {
            a0 = (((a0 + k0[0] * xk[0]) + k0[1] * xk[1]) + k0[2] * xk[2]) + k0[3] * xk[3];
            a1 = (((a1 + k1[0] * xk[0]) + k1[1] * xk[1]) + k1[2] * xk[2]) + k1[3] * xk[3];
        }
        let xt = xc.remainder();
        [
            Self::row_tail(a0, c0.remainder(), xt),
            Self::row_tail(a1, c1.remainder(), xt),
        ]
    }
}

impl Kernel for BlockedKernel {
    const NAME: &'static str = "blocked";

    fn matvec(cols: usize, data: &[f64], x: &[f64], out: &mut [f64]) {
        debug_check_matvec(cols, data, x, out);
        if cols == 0 {
            out.fill(0.0);
            return;
        }
        let mut blocks = data.chunks_exact(MR * cols);
        let mut outs = out.chunks_exact_mut(MR);
        for (block, o) in (&mut blocks).zip(&mut outs) {
            o.copy_from_slice(&Self::block_dot(cols, block, x));
        }
        // Leftover rows (< MR): a two-row block when possible, then at most
        // one plain scalar-order dot product.
        let mut leftover = blocks.remainder();
        let mut o = outs.into_remainder();
        if o.len() >= 2 {
            let (pair, rest) = leftover.split_at(2 * cols);
            let (r0, r1) = pair.split_at(cols);
            o[..2].copy_from_slice(&Self::pair_dot(r0, r1, x));
            leftover = rest;
            o = &mut o[2..];
        }
        if let Some(last) = o.first_mut() {
            *last = Self::row_dot(leftover, x);
        }
    }
}

/// Runtime-chosen kernel backend — the enum form of the [`Kernel`]
/// implementations, used at API boundaries (plan files,
/// `RuntimeLoop::with_kernel`).
///
/// Hot loops never branch on this: callers `match` once per episode and
/// enter a monomorphized path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// [`ScalarKernel`] — the reference loops (the default).
    #[default]
    Scalar,
    /// [`BlockedKernel`] — register-blocked, unrolled loops.
    Blocked,
}

impl KernelBackend {
    /// Every available backend, in the order they are documented. Tests
    /// iterate this to hold all backends to the bit-exactness contract.
    pub const ALL: [Self; 2] = [Self::Scalar, Self::Blocked];

    /// The backend's canonical name (what [`Self::parse`] accepts).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => ScalarKernel::NAME,
            Self::Blocked => BlockedKernel::NAME,
        }
    }

    /// Comma-separated list of valid names, for error messages:
    /// `"scalar, blocked"`.
    #[must_use]
    pub(crate) fn valid_names() -> String {
        Self::ALL
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Parses a backend name (a plan's `exec.kernel`). Matching is exact on
    /// the canonical lower-case names.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownKernelError`] — whose message lists the valid
    /// names — for anything else.
    pub fn parse(value: &str) -> Result<Self, UnknownKernelError> {
        Self::ALL
            .into_iter()
            .find(|b| b.name() == value)
            .ok_or_else(|| UnknownKernelError {
                value: value.to_owned(),
            })
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An unrecognized kernel backend name; the message lists the valid names
/// so plan authors can self-correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKernelError {
    /// The rejected name.
    pub value: String,
}

impl fmt::Display for UnknownKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown kernel backend '{}' (valid: {})",
            self.value,
            KernelBackend::valid_names()
        )
    }
}

impl std::error::Error for UnknownKernelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::layer;

    fn filled(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn scalar_matvec_matches_manual() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0.0; 2];
        ScalarKernel::matvec(3, &data, &[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, [6.0, 15.0]);
    }

    #[test]
    fn blocked_matches_scalar_across_shapes() {
        // Non-multiple-of-block shapes included: odd rows/cols, 1xN, Nx1.
        for (rows, cols) in [
            (1, 1),
            (1, 7),
            (7, 1),
            (3, 5),
            (4, 4),
            (5, 9),
            (8, 16),
            (13, 11),
            (16, 7),
        ] {
            let data = filled(rows * cols, |i| (i as f64).sin() * 2.0 - 0.3);
            let x = filled(cols, |i| (i as f64).cos() * 1.5);
            let mut scalar = vec![f64::NAN; rows];
            let mut blocked = vec![f64::NAN; rows];
            ScalarKernel::matvec(cols, &data, &x, &mut scalar);
            BlockedKernel::matvec(cols, &data, &x, &mut blocked);
            assert_eq!(scalar, blocked, "{rows}x{cols} matvec diverged");
        }
    }

    #[test]
    fn degenerate_shapes_are_defined() {
        // Zero rows: nothing written; zero cols: the empty sum (0.0).
        let mut empty: [f64; 0] = [];
        ScalarKernel::matvec(5, &[], &[0.0; 5], &mut empty);
        BlockedKernel::matvec(5, &[], &[0.0; 5], &mut empty);
        let mut out = [f64::NAN; 3];
        ScalarKernel::matvec(0, &[], &[], &mut out);
        assert_eq!(out, [0.0; 3]);
        out = [f64::NAN; 3];
        BlockedKernel::matvec(0, &[], &[], &mut out);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    fn fused_matches_two_pass() {
        // The policy's per-layer step (the backend's matvec, then
        // tanh(sum + bias) in place) equals two passes: `ScalarKernel::matvec`
        // into a buffer, then tanh(sum + bias) per output.
        let weights = filled(6 * 5, |i| 0.1 * i as f64 - 1.0);
        let bias = filled(6, |i| 0.05 * i as f64);
        let x = filled(5, |i| 0.3 * i as f64 - 0.5);
        // The trailing 7.0 stands for the next layer's parameters.
        let params = [weights.as_slice(), bias.as_slice(), &[7.0]].concat();
        let mut two_pass = vec![0.0; 6];
        ScalarKernel::matvec(5, &weights, &x, &mut two_pass);
        for (o, b) in two_pass.iter_mut().zip(&bias) {
            *o = (*o + b).tanh();
        }
        let mut scalar = vec![f64::NAN; 6];
        let mut blocked = vec![f64::NAN; 6];
        assert_eq!(layer::<ScalarKernel>(&params, &x, &mut scalar), [7.0]);
        assert_eq!(layer::<BlockedKernel>(&params, &x, &mut blocked), [7.0]);
        assert_eq!(scalar, two_pass, "scalar fused forward diverged");
        assert_eq!(blocked, two_pass, "blocked fused forward diverged");
    }

    #[test]
    fn backend_enum_roundtrips_names() {
        for backend in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(backend.name()), Ok(backend));
            assert_eq!(backend.to_string(), backend.name());
        }
        assert_eq!(KernelBackend::default(), KernelBackend::Scalar);
        assert_eq!(KernelBackend::valid_names(), "scalar, blocked");
    }

    #[test]
    fn unknown_names_are_rejected_with_the_valid_list() {
        for bad in ["", "SCALAR", "avx512", "blocked ", "simd"] {
            let err = KernelBackend::parse(bad).expect_err("must reject");
            let message = err.to_string();
            assert!(message.contains(&format!("'{bad}'")), "{message}");
            assert!(message.contains("scalar, blocked"), "{message}");
        }
    }
}
