"""Optional compiled fluid-engine kernels (transparent numpy fallback).

The fluid simulator re-solves Max-Min rates thousands of times per
scenario; each solve is a handful of local-bottleneck rounds over a few
hundred bundles.  At that size the numpy implementation is dispatch-bound
(~100 numpy calls of ~300 elements each), so a direct C translation of
the *same* loop runs an order of magnitude faster.

The shared object has three entry points, each bound by its own loader:

* ``repro_waterfill`` (:func:`load_kernel`) — one bundled solve, behind
  :func:`repro.network.maxmin.waterfill_bundled`;
* ``repro_waterfill_batch`` (:func:`load_batch_kernel`) — the re-solve
  of every dirty component of one event in one crossing;
* ``repro_sweep_comp`` (:func:`load_sweep_kernel`) — one component's
  completion sweep.

This module compiles the C source on first use with the system C
compiler into a content-addressed shared object under the user cache
directory and binds it via :mod:`ctypes` — no build-time machinery, no
extra dependencies.  When no compiler is available (or
``REPRO_NO_C_KERNEL=1`` is set) every loader returns ``None`` and the
callers keep their numpy paths.

The C code mirrors the numpy path operation-for-operation — same freeze
rules, same tolerance constants, same per-link accumulation order — and
is compiled with ``-ffp-contract=off`` so no FMA contraction can change
a rounding: its results are **bitwise identical** to the numpy path
(asserted by ``tests/test_bundled_solver.py`` and
``tests/test_parallel_solver.py`` whenever the kernel is available),
which keeps golden event counts independent of whether an environment
could compile.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["load_kernel", "load_batch_kernel", "load_sweep_kernel",
           "warm", "kernel_status"]

#: Why the kernel is (un)available — for diagnostics, set by load_kernel.
kernel_status = "not loaded"

_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]

_C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>
#include <stdint.h>

/* Local-bottleneck waterfilling over flow bundles (CSR incidence).
 *
 * Mirrors the numpy rounds of repro.network.maxmin.waterfill_bundled
 * operation-for-operation so the results are bitwise identical:
 * per-link sums accumulate in entry (bundle-major) order, the freeze
 * tests use the same tolerance constants, and the residual is clamped
 * to zero once per round.
 *
 * route_len > 0 declares that bundle b's links are
 * flat[b*route_len : (b+1)*route_len] (ptr may be NULL); otherwise the
 * CSR ptr is used.  A bundle with multiplicity 0 or an empty route is
 * cap-limited and never enters the filling.
 *
 * The rounds live in waterfill_core over caller-provided scratch of
 * (4*n_links + 2*n_b) doubles plus n_b bytes, so the batched entry
 * point below can run many components through one allocation; the
 * single-component wrapper keeps the original malloc-per-call ABI.
 * ctypes dispatches every entry point through CDLL, which drops the
 * GIL around the foreign call — solver threads therefore run the
 * rounds truly concurrently.
 */
static void waterfill_core(int64_t n_b, int64_t n_links,
                           const int64_t *flat, const int64_t *ptr,
                           int64_t route_len,
                           const double *mult, const double *caps,
                           const double *capacities,
                           double *rates, double *scratch)
{
    double *residual = scratch;
    double *counts = scratch + n_links;
    double *levels = scratch + 2 * n_links;
    double *link_min = scratch + 3 * n_links;
    double *blm = scratch + 4 * n_links;
    double *bundle_min = blm + n_b;
    unsigned char *notfixed = (unsigned char *)(bundle_min + n_b);

#define ROW(b, s, e) \
    int64_t s = route_len ? (b) * route_len : ptr[b]; \
    int64_t e = route_len ? s + route_len : ptr[(b) + 1];

    int64_t n_unfixed = 0;
    for (int64_t b = 0; b < n_b; b++) {
        ROW(b, s, e)
        if (mult[b] == 0.0 || e == s) {
            rates[b] = caps[b];
            notfixed[b] = 0;
        } else {
            rates[b] = 0.0;
            notfixed[b] = 1;
            n_unfixed++;
        }
    }
    memcpy(residual, capacities, (size_t)n_links * sizeof(double));

    while (n_unfixed > 0) {
        for (int64_t l = 0; l < n_links; l++) counts[l] = 0.0;
        for (int64_t b = 0; b < n_b; b++) {
            if (!notfixed[b]) continue;
            ROW(b, s, e)
            for (int64_t k = s; k < e; k++) counts[flat[k]] += mult[b];
        }
        for (int64_t l = 0; l < n_links; l++)
            levels[l] = counts[l] > 0.0 ? residual[l] / counts[l] : INFINITY;

        /* per-bundle bottleneck level, capped */
        for (int64_t b = 0; b < n_b; b++) {
            double m = INFINITY;
            if (notfixed[b]) {
                ROW(b, s, e)
                for (int64_t k = s; k < e; k++) {
                    double lv = levels[flat[k]];
                    if (lv < m) m = lv;
                }
            }
            blm[b] = m;
            bundle_min[b] = caps[b] < m ? caps[b] : m;
        }
        /* a link freezes when no unfixed bundle on it bottlenecks lower */
        for (int64_t l = 0; l < n_links; l++) link_min[l] = INFINITY;
        for (int64_t b = 0; b < n_b; b++) {
            if (!notfixed[b]) continue;
            ROW(b, s, e)
            for (int64_t k = s; k < e; k++)
                if (bundle_min[b] < link_min[flat[k]])
                    link_min[flat[k]] = bundle_min[b];
        }
        int64_t n_new = 0;
        for (int64_t b = 0; b < n_b; b++) {
            if (!notfixed[b]) continue;
            int fix = caps[b] <= blm[b] * (1.0 + 1e-12);
            if (!fix) {
                ROW(b, s, e)
                for (int64_t k = s; k < e; k++) {
                    int64_t l = flat[k];
                    if (link_min[l] >= levels[l] * (1.0 - 1e-12)) {
                        fix = 1;
                        break;
                    }
                }
            }
            if (fix) {
                rates[b] = bundle_min[b];
                notfixed[b] = 2;        /* subtract pass below */
                n_new++;
            }
        }
        if (n_new == 0) break;          /* degenerate: all levels inf */
        for (int64_t b = 0; b < n_b; b++) {
            if (notfixed[b] == 2) {
                notfixed[b] = 0;
                ROW(b, s, e)
                for (int64_t k = s; k < e; k++)
                    residual[flat[k]] -= rates[b] * mult[b];
            }
        }
        for (int64_t l = 0; l < n_links; l++)
            if (residual[l] < 0.0) residual[l] = 0.0;
        n_unfixed -= n_new;
    }
    for (int64_t b = 0; b < n_b; b++)
        if (notfixed[b]) rates[b] = caps[b];   /* safety net: cap-limited */
#undef ROW
}

/* Returns 0 on success, non-zero when the scratch allocation failed —
 * the caller then falls back to the numpy implementation. */
int repro_waterfill(int64_t n_b, int64_t n_links,
                    const int64_t *flat, const int64_t *ptr,
                    int64_t route_len,
                    const double *mult, const double *caps,
                    const double *capacities,
                    double *rates)
{
    double *scratch = malloc((size_t)(4 * n_links + 2 * n_b) * sizeof(double)
                             + (size_t)n_b);
    if (!scratch)
        return 1;
    waterfill_core(n_b, n_links, flat, ptr, route_len,
                   mult, caps, capacities, rates, scratch);
    free(scratch);
    return 0;
}

/* Component descriptor for the batched solve / sweep entry points.
 *
 * One component is 16 int64 slots: sizes and raw array addresses the
 * Python side caches between structural changes (the "packed arena" —
 * any bundle-diff mutation invalidates it):
 *
 *   [0] n_b          bundle rows               [8]  rates*      (n_b)
 *   [1] n_links      local link count          [9]  n_flows
 *   [2] flat*        CSR link incidence        [10] flow_row*   (int64)
 *   [3] ptr*         CSR offsets (0 if [4])    [11] flow_fid*   (int64)
 *   [4] route_len    uniform route length      [12] flow_rates* (double)
 *   [5] mult*        multiplicities (double)   [13] proj*       (double)
 *   [6] caps*        per-flow rate caps        [14] reserved
 *   [7] capacities*  link capacity slice       [15] reserved
 */
#define RPRO_DESC_SLOTS 16

/* Solve n_comps components in one crossing: waterfill each, gather the
 * per-flow rates, project completion times (t_now + remaining/rate,
 * the numpy expression verbatim) and write each component's earliest
 * projection to next_out (NaN-propagating like np.min, INFINITY when
 * the component has no flow slots).  Output slices are disjoint per
 * component, so concurrent calls over disjoint descriptor ranges are
 * race-free.  Returns 0, or non-zero when scratch allocation failed
 * (the caller falls back to per-component solves).
 */
int repro_waterfill_batch(int64_t n_comps, const int64_t *desc,
                          double t_now, const double *remaining,
                          double *next_out)
{
    int64_t max_links = 1, max_b = 1;
    for (int64_t c = 0; c < n_comps; c++) {
        const int64_t *d = desc + c * RPRO_DESC_SLOTS;
        if (d[0] > max_b) max_b = d[0];
        if (d[1] > max_links) max_links = d[1];
    }
    double *scratch = malloc(
        (size_t)(4 * max_links + 2 * max_b) * sizeof(double)
        + (size_t)max_b);
    if (!scratch)
        return 1;
    for (int64_t c = 0; c < n_comps; c++) {
        const int64_t *d = desc + c * RPRO_DESC_SLOTS;
        double *rates = (double *)d[8];
        waterfill_core(d[0], d[1],
                       (const int64_t *)d[2], (const int64_t *)d[3], d[4],
                       (const double *)d[5], (const double *)d[6],
                       (const double *)d[7], rates, scratch);
        int64_t n_f = d[9];
        const int64_t *frow = (const int64_t *)d[10];
        const int64_t *ffid = (const int64_t *)d[11];
        double *frate = (double *)d[12];
        double *proj = (double *)d[13];
        double m = INFINITY;
        int has_nan = 0;
        for (int64_t i = 0; i < n_f; i++) {
            double r = rates[frow[i]];
            frate[i] = r;
            double p = t_now + remaining[ffid[i]] / r;
            proj[i] = p;
            if (isnan(p)) has_nan = 1;
            else if (p < m) m = p;
        }
        next_out[c] = has_nan ? NAN : (n_f > 0 ? m : INFINITY);
    }
    free(scratch);
    return 0;
}

/* The completion sweep of one component, mirroring the numpy block of
 * _ComponentRegistry.sweep slot-for-slot: materialise the flows by dt
 * (guarded dt > 0), detect completions against the freshly
 * materialised remaining (the numpy order: subtract, then compare),
 * and either
 *
 *   - no completion: reproject every slot from the materialised
 *     remaining and write the new earliest projection (NaN-propagating
 *     min; INFINITY when no flow slots) — the spurious wake-up path —
 *     returning 0, or
 *   - n > 0 completions: for each completing slot in flow-slot order,
 *     decrement its row multiplicity, mark the flow done
 *     (remaining = inf), zero its cached rate, clear its projection,
 *     and append (fid, row) to finished/rows_out; returns n.
 *
 * Each fid occupies at most one live slot per component, so the
 * in-place remaining update cannot affect another slot's completion
 * test within the loop — the single pass is exactly the numpy
 * two-phase select-then-mutate.
 */
int64_t repro_sweep_comp(const int64_t *d, double dt, double t_now,
                         const double *done_threshold, double *remaining,
                         int64_t *finished, int64_t *rows_out,
                         double *next_out)
{
    int64_t n_f = d[9];
    const int64_t *frow = (const int64_t *)d[10];
    const int64_t *ffid = (const int64_t *)d[11];
    double *frate = (double *)d[12];
    double *proj = (double *)d[13];
    double *mult = (double *)d[5];

    if (dt > 0.0)
        for (int64_t i = 0; i < n_f; i++)
            remaining[ffid[i]] -= frate[i] * dt;

    int64_t n_done = 0;
    for (int64_t i = 0; i < n_f; i++) {
        int64_t fid = ffid[i];
        if (remaining[fid] <= done_threshold[fid]) {
            mult[frow[i]] -= 1.0;
            remaining[fid] = INFINITY;     /* dead-slot marker */
            frate[i] = 0.0;
            proj[i] = INFINITY;
            finished[n_done] = fid;
            rows_out[n_done] = frow[i];
            n_done++;
        }
    }
    if (n_done == 0) {
        double m = INFINITY;
        int has_nan = 0;
        for (int64_t i = 0; i < n_f; i++) {
            double p = t_now + remaining[ffid[i]] / frate[i];
            proj[i] = p;
            if (isnan(p)) has_nan = 1;
            else if (p < m) m = p;
        }
        *next_out = has_nan ? NAN : (n_f > 0 ? m : INFINITY);
    }
    return n_done;
}
"""


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-kernels"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / "repro-kernels"


_LIB_UNSET = object()
_LIB = _LIB_UNSET       # memoised CDLL (or None when unavailable)


def _load_lib():
    """Compile (once, content-addressed) and load the kernel library.

    The shared object holds every kernel entry point; individual loaders
    bind their function from it.  Returns the ``ctypes.CDLL`` or ``None``
    when compilation is unavailable; the reason lands in
    :data:`kernel_status`.  The env-var kill switch is checked on every
    call (not memoised) so tests can toggle it.
    """
    global kernel_status, _LIB
    if os.environ.get("REPRO_NO_C_KERNEL"):
        kernel_status = "disabled by REPRO_NO_C_KERNEL"
        return None
    if _LIB is not _LIB_UNSET:
        return _LIB
    try:
        cc = (shutil.which("cc") or shutil.which("gcc")
              or shutil.which("clang"))
        if cc is None:
            kernel_status = "no C compiler found"
            _LIB = None
            return None
        tag = hashlib.sha256(
            (_C_SOURCE + " ".join(_CFLAGS)).encode()).hexdigest()[:16]
        cache = _cache_dir()
        so_path = cache / f"waterfill-{tag}.so"
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            src = cache / f"waterfill-{tag}.c"
            src.write_text(_C_SOURCE)
            # compile to a unique temp name, then atomically publish —
            # concurrent processes (pool workers) race safely
            tmp = cache / f".waterfill-{tag}.{os.getpid()}.so"
            result = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), str(src)],
                capture_output=True, text=True, timeout=120)
            if result.returncode != 0:
                kernel_status = f"compile failed: {result.stderr[:500]}"
                tmp.unlink(missing_ok=True)
                _LIB = None
                return None
            os.replace(tmp, so_path)
        _LIB = ctypes.CDLL(str(so_path))
        kernel_status = f"loaded ({so_path})"
        return _LIB
    except Exception as exc:  # pragma: no cover - environment-specific
        kernel_status = f"unavailable: {exc!r}"
        _LIB = None
        return None


def load_kernel():
    """Bind the bundled waterfilling kernel, or ``None`` (numpy path)."""
    lib = _load_lib()
    if lib is None:
        return None
    fn = lib.repro_waterfill
    i64, vp = ctypes.c_int64, ctypes.c_void_p
    # pointer slots take raw addresses (ndarray.ctypes.data) — far
    # cheaper per call than constructing POINTER objects
    fn.argtypes = [i64, i64, vp, vp, i64, vp, vp, vp, vp]
    fn.restype = ctypes.c_int
    return fn


def load_batch_kernel():
    """Bind the batched multi-component solver kernel, or ``None``.

    Signature: ``(n_comps, desc_addr, t_now, remaining_addr,
    next_out_addr)`` where ``desc_addr`` points at ``n_comps``
    16-slot int64 component descriptors (see the C source).  Disjoint
    descriptor ranges may be solved concurrently: ctypes releases the
    GIL around the call and every output slice is component-private.
    """
    lib = _load_lib()
    if lib is None:
        return None
    fn = lib.repro_waterfill_batch
    i64, vp = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, vp, ctypes.c_double, vp, vp]
    fn.restype = ctypes.c_int
    return fn


def load_sweep_kernel():
    """Bind the per-component completion-sweep kernel, or ``None``.

    Signature: ``(desc_addr, dt, t_now, done_threshold_addr,
    remaining_addr, finished_addr, rows_out_addr, next_out_addr)``;
    returns the number of completed flows (0 = spurious wake-up, with
    the new earliest projection written to ``next_out``).
    """
    lib = _load_lib()
    if lib is None:
        return None
    fn = lib.repro_sweep_comp
    i64, vp = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [vp, ctypes.c_double, ctypes.c_double, vp, vp, vp, vp, vp]
    fn.restype = i64
    return fn


def warm() -> dict:
    """Precompile and bind every kernel (CI / install warm-up hook).

    Compiling is content-addressed, so a warm cache directory makes every
    later ``load_*`` call a pure dlopen — cold ``repro serve`` starts no
    longer pay compile-at-first-use.  Returns a status mapping.
    """
    return {
        "waterfill": load_kernel() is not None,
        "waterfill_batch": load_batch_kernel() is not None,
        "sweep_comp": load_sweep_kernel() is not None,
        "status": kernel_status,
    }
