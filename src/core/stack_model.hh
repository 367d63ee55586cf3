/**
 * @file
 * Compact RC thermal model of a die in its package.
 *
 * This is the paper's modified HotSpot. The die (and every layer
 * with the same footprint) is partitioned either into the floorplan's
 * functional blocks (block mode, HotSpot classic) or into a regular
 * grid (grid mode, needed for thermal maps and for the oil
 * flow-direction effect). Layers larger than the die — spreader,
 * heatsink, PCB — get four peripheral strip nodes per size step.
 *
 * Conductances:
 *  - lateral, within a layer: k t L / (d_a + d_b) between rects
 *    sharing an edge of length L, where d is each rect's half-extent
 *    perpendicular to the edge (HotSpot's formula);
 *  - vertical, between consecutive layers: A_overlap divided by the
 *    two half-thickness resistances in series;
 *  - boundary: AIR-SINK's lumped sink-to-ambient resistance is
 *    distributed over sink nodes by area; OIL-SILICON stamps the
 *    per-cell laminar h(x) of paper Eq. 8 (or the plate average of
 *    Eq. 2 when directionality is disabled), both on the die top and
 *    on the PCB bottom.
 *
 * The oil boundary layer's heat capacitance (paper Eqs. 3-4) is
 * attached at the silicon-oil interface exactly as in the paper's
 * Fig. 7(b) circuit; an ablation flag splits Rconv around a separate
 * oil node instead.
 *
 * All solves happen in temperature-rise space (ambient = ground);
 * public APIs return absolute kelvin.
 */

#ifndef IRTHERM_CORE_STACK_MODEL_HH
#define IRTHERM_CORE_STACK_MODEL_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/package.hh"
#include "floorplan/floorplan.hh"
#include "floorplan/grid_mapping.hh"
#include "numeric/bordered_stencil.hh"
#include "numeric/linear_operator.hh"
#include "numeric/sparse.hh"

namespace irtherm
{

struct ImpulseResponseMatrix;

/** Spatial discretization of the die footprint. */
enum class ModelMode
{
    Block, ///< one node per functional block per layer
    Grid,  ///< regular nx x ny cells per layer
};

/** Discretization options. */
struct ModelOptions
{
    ModelMode mode = ModelMode::Block;
    std::size_t gridNx = 32;
    std::size_t gridNy = 32;
};

/**
 * The assembled RC network for one (floorplan, package) pair, plus
 * the block <-> node mappings and a steady-state solver.
 */
class StackModel
{
  public:
    /** A conductance from a node to ambient (ground). */
    struct GroundStamp
    {
        std::size_t node;
        double conductance;
        bool primary; ///< true: cooling side; false: secondary path
    };

    StackModel(const Floorplan &fp, const PackageConfig &pkg,
               const ModelOptions &opts = {});

    // --- network access -------------------------------------------------
    const CsrMatrix &conductance() const { return g_; }
    const std::vector<double> &capacitance() const { return cap_; }
    std::size_t nodeCount() const { return cap_.size(); }
    /** "<layer>:<rect>", "oil:<cell>" or "coolant:<cell>", composed
     *  on each call. @throws std::out_of_range past nodeCount() */
    std::string nodeName(std::size_t node) const;
    const std::vector<GroundStamp> &groundStamps() const;

    /**
     * Where the grid layers sit in node order: one plane per layer,
     * top to bottom, with the split-capacitance oil nodes as the
     * plane above the die; the ring strips are the border. Null in
     * block mode and for advective networks, whose solves are
     * Jacobi-preconditioned.
     */
    const PlaneLayout *planeLayout() const;

    // --- mappings ---------------------------------------------------------
    const Floorplan &floorplan() const { return fp_; }
    const PackageConfig &packageConfig() const { return pkg_; }
    const ModelOptions &options() const { return opts_; }

    /** Die-footprint partition (blocks or grid cells). */
    const std::vector<Block> &partition() const { return partition_; }
    std::size_t partitionCells() const { return partition_.size(); }

    /** First node index of the silicon layer (cells follow in order). */
    std::size_t siliconNodeBegin() const;

    /**
     * Expand per-block powers (W) into a full node power vector.
     * @pre block_powers.size() == floorplan().blockCount()
     */
    std::vector<double>
    nodePowerVector(const std::vector<double> &block_powers) const;

    /** As above, into @p out (resized; no allocation once sized). */
    void nodePowerVector(const std::vector<double> &block_powers,
                         std::vector<double> &out) const;

    /** Area-weighted mean silicon temperature per block (kelvin). */
    std::vector<double>
    blockTemperatures(const std::vector<double> &node_temps) const;

    /** Maximum silicon cell temperature per block (kelvin). */
    std::vector<double>
    blockMaxTemperatures(const std::vector<double> &node_temps) const;

    /** Silicon-layer temperatures, one per partition cell (kelvin). */
    std::vector<double>
    siliconCellTemperatures(const std::vector<double> &node_temps) const;

    // --- solving ----------------------------------------------------------
    /** Knobs for the steady-state solve (sweep jobs tune these). */
    struct SteadySolveOptions
    {
        std::size_t maxIterations = 100000;
        double tolerance = 1e-11; ///< relative to ||b||_2
        /**
         * Optional starting guess in temperature-rise space, node
         * order (e.g. a completed solve of the same stack under
         * different powers). Ignored when the size mismatches.
         */
        const std::vector<double> *warmStart = nullptr;
        /**
         * Escalate through the verified fallback chain (jacobi-cg,
         * bicgstab, dense-lu) when the primary solve fails
         * verification. Off restores fail-fast semantics: the first
         * non-converged solve throws NumericError.
         */
        bool fallback = true;
        /**
         * Preconditioner for the primary CG tier. Multigrid runs a
         * V-cycle over planeLayout()'s planes with an exact solve of
         * the strip nodes around it (BorderedPreconditioner); without
         * a plane layout (block mode, microchannel) it degrades to
         * Jacobi, as on any CSR matrix.
         */
        PreconditionerKind preconditioner = PreconditionerKind::Multigrid;
        /**
         * Answer via impulse-response superposition: one unit-power
         * steady solve per block is cached under @ref stackKey, and
         * every solve of the same conductance network becomes a
         * dense matrix-vector product (Kemper et al.). Each
         * superposed answer is re-verified against the actual
         * conductance matrix with the iterative chain's residual
         * bound; a failed check invalidates the cache entry and
         * demotes the solve to the iterative chain. Requires a
         * nonzero stackKey; ignored for warm-started solves (the
         * guess implies the caller wants the iterative path) and
         * non-symmetric (advective) networks.
         */
        bool superposition = false;
        /**
         * Content hash identifying this conductance network across
         * jobs (e.g. ScenarioSpec::stackHash()). Zero disables the
         * superposition cache.
         */
        std::uint64_t stackKey = 0;
    };

    /** Telemetry from one steady solve. */
    struct SteadySolveInfo
    {
        std::size_t iterations = 0;
        double residualNorm = 0.0;
        double initialResidualNorm = 0.0;
        bool warmStarted = false;
        /** Fallback escalations taken (0 = primary method passed). */
        int fallbackTier = 0;
        /** Solver that produced the answer (e.g. "mg-cg",
         *  "superposition"). */
        std::string method;
        /** Answer came from a cached impulse-response matrix (a
         *  verified GEMV instead of an iterative solve). */
        bool impulseCacheHit = false;
    };

    /** Steady-state node temperatures (kelvin, absolute). */
    std::vector<double>
    steadyNodeTemperatures(const std::vector<double> &block_powers) const;

    /**
     * Steady solve with explicit solver options and optional
     * telemetry (@p info may be null). Throws NumericError when the
     * solver (and, unless disabled, its fallback chain) fails.
     */
    std::vector<double>
    steadyNodeTemperatures(const std::vector<double> &block_powers,
                           const SteadySolveOptions &solve_opts,
                           SteadySolveInfo *info = nullptr) const;

    /** Steady-state per-block silicon temperatures (kelvin). */
    std::vector<double>
    steadyBlockTemperatures(const std::vector<double> &block_powers) const;

    // --- diagnostics --------------------------------------------------------
    /** 1 / (sum of primary-side boundary conductances), K/W. */
    double equivalentPrimaryResistance() const;

    /** Heat leaving through the cooling side at the given temps (W). */
    double heatThroughPrimary(const std::vector<double> &node_temps) const;

    /** Heat leaving through the secondary path (W). */
    double heatThroughSecondary(const std::vector<double> &node_temps) const;

    /**
     * True when the network contains upwind advection stamps
     * (microchannel coolant); the conductance matrix is then
     * non-symmetric and solvers dispatch to BiCGSTAB.
     */
    bool hasAdvection() const { return advection; }

    /** Total silicon heat capacitance (J/K), for time-constant math. */
    double siliconCapacitance() const;

    /** Total attached oil boundary-layer capacitance (J/K); 0 for air. */
    double oilCapacitance() const { return oilCapacitanceTotal; }

    /**
     * Vertical conduction resistance through the die thickness over
     * the whole die area, t / (k A) — the paper's Rth,Si.
     */
    double siliconVerticalResistance() const;

  private:
    struct Layer
    {
        std::string name;
        SolidMaterial mat;
        double thickness = 0.0;
        /** Die-footprint cells first (partition order), strips after. */
        std::vector<Block> rects;
        std::size_t nodeOffset = 0;
        bool cellsArePartition = false;
    };

    void buildPartition();
    void buildLayers();
    void assemble();

    /** The silicon-layer slice of @p node_temps, one entry per
     *  partition cell; fatal on a node vector of the wrong size. */
    std::span<const double>
    siliconCells(const std::vector<double> &node_temps) const;

    /**
     * Superposition fast path (see SteadySolveOptions): answer from
     * the cached impulse-response matrix of this stack when the
     * independent residual check passes. False means the caller must
     * run the iterative chain (build failed or verification missed;
     * the stale cache entry is already invalidated).
     */
    bool trySuperposedSteady(const std::vector<double> &block_powers,
                             const std::vector<double> &node_powers,
                             const SteadySolveOptions &solve_opts,
                             SteadySolveInfo *info,
                             std::vector<double> &out) const;

    /**
     * The impulse-response matrix: one steady solve per block, unit
     * power into block b giving column b. G is factored once
     * (factorWithinCap) and every column answered by one blocked
     * substitution; a column that DirectCheck rejects, and every
     * column of a G whose factor is over the cap or fails, goes
     * through robustSolve's MG-CG chain. Throws NumericError when that
     * chain fails.
     */
    std::shared_ptr<ImpulseResponseMatrix>
    buildImpulseResponse(const SteadySolveOptions &solve_opts) const;

    /** Average oil h over a rect for the configured flow. */
    double oilCoefficient(const Block &rect, double ext_x0, double ext_y0,
                          double ext_x1, double ext_y1) const;

    /** Oil boundary-layer capacitance attached over a rect (J/K). */
    double oilCellCapacitance(const Block &rect, double ext_x0,
                              double ext_y0, double ext_x1,
                              double ext_y1) const;

    Floorplan fp_;
    PackageConfig pkg_;
    ModelOptions opts_;

    std::vector<Block> partition_;
    std::unique_ptr<GridMapping> mapping_; ///< grid mode only
    std::vector<Layer> layers_;
    std::size_t dieLayer = 0;

    CsrMatrix g_;
    std::vector<double> cap_;
    std::vector<GroundStamp> grounds_;
    PlaneLayout planes_; ///< no planes: no multigrid view
    double primaryConductance = 0.0;
    double oilCapacitanceTotal = 0.0;
    /** Extra nodes for the split-capacitance oil variant. */
    std::size_t oilNodeOffset = 0;
    std::size_t oilNodeCount = 0;

    /** Coolant advected out of the die carries this heat away. */
    struct AdvectionOutlet
    {
        std::size_t node;
        double mcp; ///< mass flow * cp for the lane (W/K)
    };
    std::vector<AdvectionOutlet> outlets_;
    std::size_t fluidNodeOffset = 0;
    std::size_t fluidNodeCount = 0;
    bool advection = false;
};

} // namespace irtherm

#endif // IRTHERM_CORE_STACK_MODEL_HH
