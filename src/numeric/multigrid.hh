/**
 * @file
 * Geometric multigrid V-cycle preconditioner for GridStencilOperator.
 *
 * CG under a one-level preconditioner (Jacobi, or the SSOR sweeps
 * this library once used) needs more iterations with every
 * refinement of a grid Laplacian. A geometric V-cycle makes the
 * iteration count grid-independent:
 * high-frequency error is removed by a damped z-line Jacobi smoother
 * and the smooth remainder is solved on a hierarchy of 2x-coarsened
 * grids, bottoming out in a dense LU factorization.
 *
 * irtherm grids are strongly anisotropic — vertical conduction
 * through thin dies dwarfs lateral spreading, and film layers have
 * no lateral links at all — which defeats the isotropic-textbook
 * combination of point smoothing with full 3D coarsening. The cycle
 * therefore pairs:
 *
 *  - Damped z-line Jacobi smoothing: every (ix, iy) column is
 *    relaxed simultaneously by an exact tridiagonal solve (Thomas,
 *    prefactored at setup), damped by omega. The strong z coupling
 *    is solved exactly at every level; only the weak lateral
 *    coupling is left to the grid hierarchy. Sweeps walk z-planes in
 *    ascending order with the residual evaluation fused into the
 *    tridiagonal forward recursion (the k-1 carry lives in the
 *    already-final plane below), so every inner loop is unit-stride
 *    and vectorizable; cells within a plane are independent, so the
 *    smoother runs on the deterministic ThreadPool with bit-identical
 *    serial/parallel results. At nz == 1 this degenerates to damped
 *    point Jacobi.
 *  - Lateral semi-coarsening: 2x aggregation in x and y only, z
 *    resolution kept, so the line smoother stays exact on every
 *    level. Coarse links are rediscretized — crossing fine links
 *    summed and rescaled by 2/(wA+wB) for the doubled
 *    center-to-center distance — keeping each level a valid
 *    conductance network; ground/capacitive diagonal excess is
 *    aggregated verbatim.
 *  - Bilinear transfers between cell centers (exact transposes of
 *    each other, built from the true aggregate center coordinates so
 *    odd-sized edge aggregates interpolate correctly), with identity
 *    transfer along the uncoarsened z axis. Equal pre/post smooth
 *    counts keep the V-cycle symmetric so CG theory applies.
 *
 * The hierarchy is stored and swept in single precision: a
 * preconditioner only needs to approximate A^-1, the outer CG
 * recurrence and the independent robustSolve residual check both run
 * in double, and halving the memory traffic nearly halves the cycle
 * cost on bandwidth-bound hosts. Setup (coarsening, factorization,
 * float conversion) costs a few V-cycles and is paid once per
 * preconditioner: once per solve, or once for all the columns of an
 * impulse build.
 *
 * Used through GridStencilOperator::makePreconditioner(
 * PreconditionerKind::Multigrid), as the plane step of a grid stack's
 * BorderedPreconditioner (bordered_stencil.hh), and in the "mg-cg"
 * tier of robustSolve. Fault point `mg.diverge` poisons the cycle
 * output to exercise the fallback chain.
 */

#ifndef IRTHERM_NUMERIC_MULTIGRID_HH
#define IRTHERM_NUMERIC_MULTIGRID_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/grid_stencil.hh"
#include "numeric/linear_operator.hh"
#include "numeric/lu.hh"

namespace irtherm
{

/** Tuning knobs for MultigridPreconditioner. */
struct MultigridOptions
{
    std::size_t preSmooth = 1;  ///< smoother passes before coarsening
    std::size_t postSmooth = 1; ///< passes after correction (= pre for
                                ///< a symmetric cycle)
    /** Line-Jacobi damping in (0, 1]. 0.80 minimizes MG-CG wall time
     *  on the benchmark grid topologies (13 iters at 1e-11 vs 14 at
     *  0.85, 22 at 0.95); undamped (1.0) stalls the cycle. */
    double omega = 0.80;
    /** Stop coarsening at or below this many cells; solve dense LU. */
    std::size_t maxCoarseCells = 64;
    std::size_t maxLevels = 16; ///< hierarchy depth safety bound
};

/**
 * One V-cycle per apply(); z ~= A^-1 r. Setup copies what the cycle
 * needs from the fine operator, which need not outlive this object.
 */
class MultigridPreconditioner final : public Preconditioner
{
  public:
    explicit MultigridPreconditioner(const GridStencilOperator &fine,
                                     const MultigridOptions &opts = {});

    void apply(const std::vector<double> &r,
               std::vector<double> &z) const override;
    PreconditionerKind kind() const override
    {
        return PreconditionerKind::Multigrid;
    }

    /** Hierarchy depth including the fine grid. */
    std::size_t levelCount() const { return levels.size(); }

  private:
    /**
     * Bilinear cell-center interpolation along one (coarsened) axis:
     * forward tables map each fine index to its two coarse support
     * cells, reverse tables list each coarse cell's fine
     * contributors (the exact transpose, at most four per coarse
     * cell).
     */
    struct AxisTransfer
    {
        std::vector<std::size_t> idx0, idx1; ///< per fine index
        std::vector<float> w0, w1;           ///< per fine index
        std::vector<std::size_t> rIdx;       ///< 4 slots per coarse
        std::vector<float> rW;               ///< 4 slots per coarse
        std::vector<std::size_t> rCount;     ///< used slots per coarse
    };

    /** A run of floats inside the hierarchy's one allocation. */
    struct Floats
    {
        float *p = nullptr;
        std::size_t n = 0;
        float *data() const { return p; }
        std::size_t size() const { return n; }
        float &operator[](std::size_t i) const { return p[i]; }
    };

    /** One grid in the hierarchy plus its smoother factorization,
     *  all in single precision (see file comment). */
    struct Level
    {
        std::size_t nx = 0, ny = 0, nz = 0;
        /** Float copies of the stencil coefficients (the double
         *  operators are the source of truth during setup only). */
        Floats diag, gx, gy, gz;
        /** Thomas factorization of the per-column tridiagonal
         *  (diag, -gz): inverse pivots and upper multipliers. */
        Floats tinv, tup;
        /** nx zeros: branchless edge handling in the row kernels
         *  (absent neighbours read weight 0 from here). */
        Floats zrow;
        /** Transfers to the next-coarser level (empty on the last). */
        AxisTransfer tx, ty;
        /** Cycle workspaces (b: RHS, x: iterate, d: correction).
         *  rp holds one plane for the separable transfers: the fused
         *  residual during restriction, the y-interpolated plane
         *  during prolongation; rp2 is the x-restricted half plane.
         *  Splitting each transfer into an x and a y pass turns the
         *  4x4 indexed gather per coarse cell into two short passes
         *  whose inner loops are unit-stride (the profile put the
         *  fused gather at ~1/3 of the whole cycle). */
        Floats b, x, d, rp, rp2;
    };

    static std::unique_ptr<GridStencilOperator>
    coarsenLateral(const GridStencilOperator &fine);

    static AxisTransfer makeAxisTransfer(std::size_t fineN,
                                         std::size_t coarseN);

    /** Thomas factors of @p op's z lines into @p lv. */
    static void factorLines(Level &lv, const GridStencilOperator &op);

    /**
     * r = b - A x for one z-plane of @p lv, written to @p out
     * (nx * ny floats). Unit-stride row kernels; edge rows borrow
     * zero weights from Level::zrow instead of branching per cell.
     */
    void residualPlane(const Level &lv, std::size_t k,
                       float *out) const;

    /** x = omega * T^-1 b (first smoother pass from a zero iterate;
     *  overwrites x, no residual evaluation needed). */
    void smoothFromZero(const Level &lv) const;

    /**
     * Fused residual + relax: d = T^-1 (b - A x) with the residual
     * evaluated inside the plane-ordered tridiagonal forward
     * recursion, then x += omega * d.
     */
    void smoothJacobi(const Level &lv) const;

    /** Exact solve for a single-column (1x1xnz) level. */
    void solveExactLine(const Level &lv) const;

    /** coarse.b = R * (fine.b - A fine.x), one plane at a time. */
    void restrictResidual(const Level &fine, const Level &coarse) const;
    void prolongCorrect(const Level &coarse, const Level &fine) const;

    MultigridOptions opts;
    std::vector<Level> levels;
    /** Every level's arrays, one allocation: a hierarchy is built
     *  per stack solve, and a few dozen separate mid-sized blocks per
     *  build fragment the allocator's per-thread arenas. Mutable:
     *  the cycle workspaces live here too. */
    mutable std::vector<float> store;
    std::unique_ptr<LuDecomposition> coarseLu;
    /** Workspaces for the double LU solve at the coarsest level. */
    mutable std::vector<double> luB, luX;
    /** Un-coarsenable 1x1xnz stack: one exact tridiagonal solve. */
    bool exactLine = false;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_MULTIGRID_HH
