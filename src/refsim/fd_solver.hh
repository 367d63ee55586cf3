/**
 * @file
 * Independent fine-grid finite-difference reference solver.
 *
 * Plays the role of ANSYS in the paper's Figs. 2-3 validation: a
 * much finer discretization of the same physics, built through a
 * different code path, against which the compact StackModel is
 * checked. Differences from the compact model:
 *
 *  - the silicon is resolved in z (nz slabs instead of one);
 *  - the oil film uses the *local* h(x) evaluated at each cell
 *    centre (not the cell-averaged integral) and a separate film
 *    node per column with the local boundary-layer capacitance;
 *  - transients use Crank-Nicolson instead of RK4/backward Euler.
 *
 * Scope matches the paper's validation setup: bare die in an oil
 * flow, adiabatic bottom, no package (the ANSYS model had none).
 */

#ifndef IRTHERM_REFSIM_FD_SOLVER_HH
#define IRTHERM_REFSIM_FD_SOLVER_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "core/package.hh"
#include "materials/fluid.hh"
#include "materials/material.hh"
#include "numeric/grid_stencil.hh"

namespace irtherm
{

/** Discretization options for the reference solver. */
struct FdOptions
{
    std::size_t nx = 64;
    std::size_t ny = 64;
    std::size_t nz = 4;     ///< silicon slabs through the thickness
    double timeStep = 2e-3; ///< Crank-Nicolson step (s)
};

/** One probed transient sample. */
struct FdSample
{
    double time = 0.0;        ///< seconds
    double centerTemp = 0.0;  ///< junction temperature at die centre (K)
    double maxTemp = 0.0;     ///< hottest junction cell (K)
    double minTemp = 0.0;     ///< coolest junction cell (K)
    double meanTemp = 0.0;    ///< area-mean junction temperature (K)
};

/**
 * Finite-difference model of a bare silicon die under laminar oil
 * flow. Power is injected in the bottom (junction) slab; the oil
 * flows over the top (back) surface.
 */
class FdSolver
{
  public:
    FdSolver(double die_width, double die_height, double die_thickness,
             const SolidMaterial &silicon, const Fluid &oil,
             double velocity, FlowDirection direction, double ambient,
             const FdOptions &opts = {});

    std::size_t nx() const { return opts.nx; }
    std::size_t ny() const { return opts.ny; }

    /** Uniform total power spread over the whole junction plane. */
    std::vector<double> uniformPowerMap(double total_watts) const;

    /**
     * Power map with @p total_watts spread uniformly over a centered
     * square source of the given side (paper Fig. 3's 2 mm source).
     */
    std::vector<double> centerSourcePowerMap(double total_watts,
                                             double source_side) const;

    /**
     * Steady-state junction-plane temperatures (kelvin), one per
     * (nx x ny) column.
     * @param cell_powers watts per junction cell
     */
    std::vector<double>
    steadyJunctionTemperatures(const std::vector<double> &cell_powers) const;

    /**
     * Transient from ambient under a constant power map; samples the
     * junction plane every @p sample_interval.
     */
    std::vector<FdSample>
    transientFromAmbient(const std::vector<double> &cell_powers,
                         double duration, double sample_interval) const;

    /** Effective overall convective resistance 1/sum(h_i A_i), K/W. */
    double equivalentConvectiveResistance() const;

    /** The network the solves run on: G and the node capacitances. */
    const GridStencilOperator &conductance() const { return g; }
    const std::vector<double> &capacitance() const { return cap; }

    /** Expand junction cell powers to the full node vector. */
    std::vector<double>
    nodePowers(const std::vector<double> &cell_powers) const;

  private:
    std::size_t cellIndex(std::size_t ix, std::size_t iy,
                          std::size_t iz) const;
    std::size_t oilIndex(std::size_t ix, std::size_t iy) const;

    FdOptions opts;
    double width, height, thickness;
    double ambient;
    double dx, dy, dz;
    std::size_t nodes;
    /**
     * Matrix-free (nz+1)-layer stencil: nz silicon slabs plus the
     * per-column oil-film layer on top (no lateral links there).
     * Node numbering is unchanged from the old CSR assembly:
     * cellIndex() for silicon, oilIndex() == layer nz of the stencil.
     */
    GridStencilOperator g;
    std::vector<double> cap;
    double convConductance = 0.0;
};

} // namespace irtherm

#endif // IRTHERM_REFSIM_FD_SOLVER_HH
