// GE2BND driver: executes a TileOp stream on a tiled matrix with the task
// runtime, reducing it to band bidiagonal form (upper bandwidth nb).
// Templated over the scalar type T in {float, double}; the op stream and
// runtime are precision-independent, only the tile kernels change.
#pragma once

#include <vector>

#include "core/alg_gen.hpp"
#include "core/tile_ops.hpp"
#include "kernels/tgrid.hpp"
#include "runtime/trace.hpp"
#include "tile/tile_matrix.hpp"

namespace tbsvd {

struct ExecOptions {
  int ib = 32;         ///< inner blocking of the tile kernels
  int nthreads = 1;    ///< worker threads (>= 1); 1 runs in submission order
};

struct ExecResult {
  Trace trace;
  std::size_t ntasks = 0;
  double seconds = 0.0;
};

/// T-factor storage of one factorization (TS/TT x QR/LQ grids).
template <class T>
struct TFactorsT {
  TGridT<T> tqts, tqtt, tlts, tltt;
  TFactorsT() = default;
  TFactorsT(int mt, int nt, int ib, int nb)
      : tqts(mt, nt, ib, nb), tqtt(mt, nt, ib, nb),
        tlts(mt, nt, ib, nb), tltt(mt, nt, ib, nb) {}
};

using TFactors = TFactorsT<double>;

/// Execute an op stream in place on tiled A. T-factor storage is created
/// internally and discarded (singular values only, as in the paper's
/// GE2VAL experiments).
template <class T>
ExecResult execute_tile_ops(TileMatrixT<T>& A, const std::vector<TileOp>& ops,
                            const ExecOptions& opt);

/// As above, but keeping the T factors in caller-provided storage (must be
/// constructed as TFactorsT<T>(A.mt(), A.nt(), opt.ib, A.nb())).
template <class T>
ExecResult execute_tile_ops(TileMatrixT<T>& A, const std::vector<TileOp>& ops,
                            const ExecOptions& opt, TFactorsT<T>& tf);

enum class BidiagAlg { Bidiag, RBidiag, Auto };

/// Reduction trees default to the paper's Auto tree: flat-TS domains
/// (TSQRT/TSMQR, the cheaper kernels) whose heads a Greedy TT tree merges.
/// Its domain size targets gamma * host_cores() parallel tasks — the host's
/// core count, not nthreads — so the op stream, and every bit of the
/// result, is the same at any thread count. FlatTS, FlatTT and Greedy stay
/// selectable.
struct Ge2bndOptions {
  TreeKind qr_tree = TreeKind::Auto;
  TreeKind lq_tree = TreeKind::Auto;
  BidiagAlg alg = BidiagAlg::Bidiag;
  /// Inner blocking; 0 resolves to the active calibration's tuned value
  /// (tune::resolved_ib) and to the historical 32 when none is loaded.
  int ib = 0;
  int nthreads = 1;
  double gamma = 2.0;  ///< Auto-tree target multiplier of host_cores()
};

/// The op-stream configuration ge2bnd builds from opt:
/// its trees and gamma, with the Auto tree sized for host_cores().
[[nodiscard]] AlgConfig ge2bnd_config(const Ge2bndOptions& opt) noexcept;

/// Reduce tiled A (p >= q tile grid) to band bidiagonal form in place.
template <class T>
ExecResult ge2bnd(TileMatrixT<T>& A, const Ge2bndOptions& opt);

}  // namespace tbsvd
