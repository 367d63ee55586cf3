#include "refsim/fd_solver.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "materials/convection.hh"
#include "numeric/iterative.hh"
#include "numeric/ode.hh"
#include "obs/metrics.hh"

namespace irtherm
{

FdSolver::FdSolver(double die_width, double die_height,
                   double die_thickness, const SolidMaterial &silicon,
                   const Fluid &oil, double velocity,
                   FlowDirection direction, double ambient_,
                   const FdOptions &opts_)
    : opts(opts_), width(die_width), height(die_height),
      thickness(die_thickness), ambient(ambient_),
      g(opts_.nx, opts_.ny, opts_.nz + 1)
{
    if (opts.nx == 0 || opts.ny == 0 || opts.nz == 0)
        fatal("FdSolver: zero grid dimension");
    silicon.check();
    oil.check();

    dx = width / static_cast<double>(opts.nx);
    dy = height / static_cast<double>(opts.ny);
    dz = thickness / static_cast<double>(opts.nz);

    const std::size_t columns = opts.nx * opts.ny;
    nodes = columns * opts.nz + columns; // silicon + oil film nodes
    cap.assign(nodes, 0.0);

    const double k = silicon.conductivity;
    const double cv = silicon.volumetricHeatCapacity;
    const double cell_area = dx * dy;

    // Silicon: capacitance plus 3-D conduction stamps, straight into
    // the matrix-free stencil (layer nz is the oil film; its links
    // are stamped below).
    for (std::size_t iz = 0; iz < opts.nz; ++iz) {
        for (std::size_t iy = 0; iy < opts.ny; ++iy) {
            for (std::size_t ix = 0; ix < opts.nx; ++ix) {
                cap[cellIndex(ix, iy, iz)] = cv * cell_area * dz;
                if (ix + 1 < opts.nx)
                    g.stampLinkX(ix, iy, iz, k * dy * dz / dx);
                if (iy + 1 < opts.ny)
                    g.stampLinkY(ix, iy, iz, k * dx * dz / dy);
                if (iz + 1 < opts.nz)
                    g.stampLinkZ(ix, iy, iz, k * dx * dy / dz);
            }
        }
    }

    // Oil film: per-column node between the top silicon slab and
    // ambient, with the local h(x) and local boundary-layer
    // capacitance evaluated at the cell centre.
    const std::size_t top = opts.nz - 1;
    for (std::size_t iy = 0; iy < opts.ny; ++iy) {
        for (std::size_t ix = 0; ix < opts.nx; ++ix) {
            double s = 0.0;
            switch (direction) {
              case FlowDirection::LeftToRight:
                s = (static_cast<double>(ix) + 0.5) * dx;
                break;
              case FlowDirection::RightToLeft:
                s = width - (static_cast<double>(ix) + 0.5) * dx;
                break;
              case FlowDirection::BottomToTop:
                s = (static_cast<double>(iy) + 0.5) * dy;
                break;
              case FlowDirection::TopToBottom:
                s = height - (static_cast<double>(iy) + 0.5) * dy;
                break;
            }
            const double h =
                localHeatTransferCoefficient(oil, velocity, s);
            const double g_conv = h * cell_area;
            const double film_cap =
                oil.volumetricHeatCapacity() * cell_area *
                localBoundaryLayerThickness(oil, velocity, s);

            // Half the film resistance on each side of the film node,
            // plus conduction through the top half silicon slab. The
            // oil node is the (ix, iy) cell of stencil layer nz; that
            // layer has no lateral links, so the columns stay
            // thermally uncoupled through the film as before.
            const double g_half_slab = k * cell_area / (0.5 * dz);
            const double g_upper =
                1.0 / (1.0 / (2.0 * g_conv) + 1.0 / g_half_slab);
            g.stampLinkZ(ix, iy, top, g_upper);
            g.stampGround(ix, iy, opts.nz, 2.0 * g_conv);
            cap[oilIndex(ix, iy)] = film_cap;
            convConductance += g_conv;
        }
    }
}

std::size_t
FdSolver::cellIndex(std::size_t ix, std::size_t iy, std::size_t iz) const
{
    return iz * opts.nx * opts.ny + iy * opts.nx + ix;
}

std::size_t
FdSolver::oilIndex(std::size_t ix, std::size_t iy) const
{
    return opts.nz * opts.nx * opts.ny + iy * opts.nx + ix;
}

std::vector<double>
FdSolver::uniformPowerMap(double total_watts) const
{
    return std::vector<double>(
        opts.nx * opts.ny,
        total_watts / static_cast<double>(opts.nx * opts.ny));
}

std::vector<double>
FdSolver::centerSourcePowerMap(double total_watts,
                               double source_side) const
{
    std::vector<double> p(opts.nx * opts.ny, 0.0);
    const double x0 = 0.5 * (width - source_side);
    const double x1 = 0.5 * (width + source_side);
    const double y0 = 0.5 * (height - source_side);
    const double y1 = 0.5 * (height + source_side);

    double covered = 0.0;
    std::vector<double> frac(opts.nx * opts.ny, 0.0);
    for (std::size_t iy = 0; iy < opts.ny; ++iy) {
        for (std::size_t ix = 0; ix < opts.nx; ++ix) {
            const double cx0 = static_cast<double>(ix) * dx;
            const double cy0 = static_cast<double>(iy) * dy;
            const double ox = std::max(
                0.0, std::min(cx0 + dx, x1) - std::max(cx0, x0));
            const double oy = std::max(
                0.0, std::min(cy0 + dy, y1) - std::max(cy0, y0));
            frac[iy * opts.nx + ix] = ox * oy;
            covered += ox * oy;
        }
    }
    if (covered <= 0.0)
        fatal("centerSourcePowerMap: source lies outside the die");
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = total_watts * frac[i] / covered;
    return p;
}

std::vector<double>
FdSolver::nodePowers(const std::vector<double> &cell_powers) const
{
    if (cell_powers.size() != opts.nx * opts.ny)
        fatal("FdSolver: power map size mismatch");
    std::vector<double> p(nodes, 0.0);
    // Heat enters at the junction (bottom) slab, iz = 0.
    for (std::size_t i = 0; i < cell_powers.size(); ++i)
        p[i] = cell_powers[i];
    return p;
}

std::vector<double>
FdSolver::steadyJunctionTemperatures(
    const std::vector<double> &cell_powers) const
{
    const std::vector<double> p = nodePowers(cell_powers);
    IterativeOptions io;
    io.tolerance = 1e-11;
    io.maxIterations = 200000;
    auto &reg = obs::MetricsRegistry::global();
    obs::ScopedTimer span(reg.timer("refsim.fd.steady_solve_time"));
    IterativeResult res = conjugateGradient(g, p, {}, io);
    reg.counter("refsim.fd.steady_solves").add();
    reg.histogram("refsim.fd.steady_cg_iterations")
        .observe(static_cast<double>(res.iterations));
    if (!res.converged)
        fatal("FdSolver: steady CG failed, residual ", res.residualNorm);

    std::vector<double> junction(opts.nx * opts.ny);
    for (std::size_t i = 0; i < junction.size(); ++i)
        junction[i] = res.x[i] + ambient;
    return junction;
}

std::vector<FdSample>
FdSolver::transientFromAmbient(const std::vector<double> &cell_powers,
                               double duration,
                               double sample_interval) const
{
    const std::vector<double> p = nodePowers(cell_powers);
    std::vector<double> rise(nodes, 0.0);
    // The integrator keeps the CSR form by reference and factors its
    // fixed system once; every step is then a checked substitution.
    const CsrMatrix gCsr = g.toCsr();
    CrankNicolsonIntegrator cn(gCsr, cap, opts.timeStep);

    const auto steps_per_sample = static_cast<std::size_t>(
        std::max(1.0, std::round(sample_interval / opts.timeStep)));
    const auto total_samples = static_cast<std::size_t>(
        std::round(duration / sample_interval));

    std::vector<FdSample> out;
    out.reserve(total_samples + 1);

    auto record = [&](double t) {
        FdSample s;
        s.time = t;
        const std::size_t cx = opts.nx / 2;
        const std::size_t cy = opts.ny / 2;
        s.centerTemp =
            rise[cy * opts.nx + cx] + ambient;
        double mx = -1e300, mn = 1e300, mean = 0.0;
        for (std::size_t i = 0; i < opts.nx * opts.ny; ++i) {
            mx = std::max(mx, rise[i]);
            mn = std::min(mn, rise[i]);
            mean += rise[i];
        }
        s.maxTemp = mx + ambient;
        s.minTemp = mn + ambient;
        s.meanTemp =
            mean / static_cast<double>(opts.nx * opts.ny) + ambient;
        out.push_back(s);
    };

    auto &sweeps =
        obs::MetricsRegistry::global().counter("refsim.fd.cn_sweeps");
    record(0.0);
    for (std::size_t s = 1; s <= total_samples; ++s) {
        for (std::size_t k = 0; k < steps_per_sample; ++k)
            cn.step(rise, p);
        sweeps.add(steps_per_sample);
        record(static_cast<double>(s * steps_per_sample) *
               opts.timeStep);
    }
    return out;
}

double
FdSolver::equivalentConvectiveResistance() const
{
    return 1.0 / convConductance;
}

} // namespace irtherm
