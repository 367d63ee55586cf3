#include "numeric/grid_stencil.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "numeric/multigrid.hh"

namespace irtherm
{

namespace
{

/** Below this many cells a parallel dispatch costs more than it saves. */
constexpr std::size_t kParallelCellThreshold = 4096;

} // namespace

GridStencilOperator::GridStencilOperator(std::size_t nx,
                                         std::size_t ny,
                                         std::size_t nz)
    : nx_(nx), ny_(ny), nz_(nz)
{
    if (nx == 0 || ny == 0 || nz == 0)
        fatal("GridStencilOperator: zero grid dimension");
    diag.assign(nx * ny * nz, 0.0);
    gx.assign(nx > 1 ? (nx - 1) * ny * nz : 0, 0.0);
    gy.assign(ny > 1 ? nx * (ny - 1) * nz : 0, 0.0);
    gz.assign(nz > 1 ? nx * ny * (nz - 1) : 0, 0.0);
}

void
GridStencilOperator::stampLinkX(std::size_t ix, std::size_t iy,
                                std::size_t iz, double g)
{
    if (ix + 1 >= nx_ || iy >= ny_ || iz >= nz_)
        fatal("stampLinkX: cell (", ix, ",", iy, ",", iz,
              ") has no +x neighbour");
    if (g < 0.0)
        fatal("stampLinkX: negative conductance ", g);
    gx[linkX(ix, iy, iz)] += g;
    diag[cellIndex(ix, iy, iz)] += g;
    diag[cellIndex(ix + 1, iy, iz)] += g;
}

void
GridStencilOperator::stampLinkY(std::size_t ix, std::size_t iy,
                                std::size_t iz, double g)
{
    if (ix >= nx_ || iy + 1 >= ny_ || iz >= nz_)
        fatal("stampLinkY: cell (", ix, ",", iy, ",", iz,
              ") has no +y neighbour");
    if (g < 0.0)
        fatal("stampLinkY: negative conductance ", g);
    gy[linkY(ix, iy, iz)] += g;
    diag[cellIndex(ix, iy, iz)] += g;
    diag[cellIndex(ix, iy + 1, iz)] += g;
}

void
GridStencilOperator::stampLinkZ(std::size_t ix, std::size_t iy,
                                std::size_t iz, double g)
{
    if (ix >= nx_ || iy >= ny_ || iz + 1 >= nz_)
        fatal("stampLinkZ: cell (", ix, ",", iy, ",", iz,
              ") has no +z neighbour");
    if (g < 0.0)
        fatal("stampLinkZ: negative conductance ", g);
    gz[linkZ(ix, iy, iz)] += g;
    diag[cellIndex(ix, iy, iz)] += g;
    diag[cellIndex(ix, iy, iz + 1)] += g;
}

void
GridStencilOperator::stampGround(std::size_t ix, std::size_t iy,
                                 std::size_t iz, double g)
{
    if (ix >= nx_ || iy >= ny_ || iz >= nz_)
        fatal("stampGround: cell (", ix, ",", iy, ",", iz,
              ") out of range");
    if (g < 0.0)
        fatal("stampGround: negative conductance ", g);
    diag[cellIndex(ix, iy, iz)] += g;
}

void
GridStencilOperator::addToDiagonal(std::size_t cell, double v)
{
    if (cell >= diag.size())
        fatal("addToDiagonal: cell ", cell, " out of range");
    diag[cell] += v;
}

void
GridStencilOperator::applyAccumulate(const std::vector<double> &x,
                                     std::vector<double> &y,
                                     double alpha) const
{
    if (x.size() != diag.size() || y.size() != diag.size())
        fatal("GridStencilOperator::applyAccumulate: size mismatch");

    const std::size_t nx = nx_, ny = ny_, nz = nz_;
    const std::size_t plane = nx * ny;
    const double *xd = x.data();
    const double *dd = diag.data();
    const double *gxd = gx.data();
    const double *gyd = gy.data();
    const double *gzd = gz.data();
    double *yd = y.data();

    // One "line" = one (iy, iz) row of nx cells; lines are
    // independent, so any partitioning over them is deterministic.
    auto kernel = [&](std::size_t l0, std::size_t l1) {
        for (std::size_t line = l0; line < l1; ++line) {
            const std::size_t iz = line / ny;
            const std::size_t iy = line % ny;
            const std::size_t base = line * nx;
            const std::size_t lxb = line * (nx - 1);
            for (std::size_t ix = 0; ix < nx; ++ix) {
                const std::size_t i = base + ix;
                double acc = dd[i] * xd[i];
                if (ix > 0)
                    acc -= gxd[lxb + ix - 1] * xd[i - 1];
                if (ix + 1 < nx)
                    acc -= gxd[lxb + ix] * xd[i + 1];
                if (iy > 0)
                    acc -= gyd[(iz * (ny - 1) + iy - 1) * nx + ix] *
                           xd[i - nx];
                if (iy + 1 < ny)
                    acc -= gyd[(iz * (ny - 1) + iy) * nx + ix] *
                           xd[i + nx];
                if (iz > 0)
                    acc -= gzd[((iz - 1) * ny + iy) * nx + ix] *
                           xd[i - plane];
                if (iz + 1 < nz)
                    acc -= gzd[(iz * ny + iy) * nx + ix] *
                           xd[i + plane];
                yd[i] += alpha * acc;
            }
        }
    };

    const std::size_t lines = ny * nz;
    if (diag.size() >= kParallelCellThreshold &&
        ThreadPool::parallelEnabled()) {
        ThreadPool &pool = ThreadPool::global();
        if (pool.threadCount() > 1) {
            const std::size_t grain = std::max<std::size_t>(
                8, lines / (4 * pool.threadCount()));
            pool.parallelFor(0, lines, grain, kernel);
            return;
        }
    }
    kernel(0, lines);
}

void
GridStencilOperator::apply(const std::vector<double> &x,
                           std::vector<double> &y) const
{
    y.assign(diag.size(), 0.0);
    applyAccumulate(x, y, 1.0);
}

std::vector<double>
GridStencilOperator::diagonal() const
{
    return diag;
}

std::unique_ptr<Preconditioner>
GridStencilOperator::makePreconditioner(PreconditionerKind kind) const
{
    if (kind == PreconditionerKind::Multigrid)
        return std::make_unique<MultigridPreconditioner>(*this);
    return std::make_unique<JacobiPreconditioner>(diag);
}

CsrMatrix
GridStencilOperator::toCsr() const
{
    SparseBuilder b(diag.size(), diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i)
        b.add(i, i, diag[i]);
    for (std::size_t iz = 0; iz < nz_; ++iz) {
        for (std::size_t iy = 0; iy < ny_; ++iy) {
            for (std::size_t ix = 0; ix < nx_; ++ix) {
                const std::size_t i = cellIndex(ix, iy, iz);
                if (ix + 1 < nx_) {
                    const double g = gx[linkX(ix, iy, iz)];
                    b.add(i, i + 1, -g);
                    b.add(i + 1, i, -g);
                }
                if (iy + 1 < ny_) {
                    const double g = gy[linkY(ix, iy, iz)];
                    b.add(i, i + nx_, -g);
                    b.add(i + nx_, i, -g);
                }
                if (iz + 1 < nz_) {
                    const double g = gz[linkZ(ix, iy, iz)];
                    b.add(i, i + nx_ * ny_, -g);
                    b.add(i + nx_ * ny_, i, -g);
                }
            }
        }
    }
    return b.build();
}

} // namespace irtherm
