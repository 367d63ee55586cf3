#include "numeric/bordered_stencil.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/logging.hh"
#include "numeric/dense_matrix.hh"
#include "numeric/lu.hh"
#include "numeric/multigrid.hh"

namespace irtherm
{

namespace
{

/** The border is solved densely: O(nb^2) per apply, O(nb^3) setup. */
constexpr std::size_t kMaxBorderNodes = 512;

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

} // namespace

BorderedStencil::BorderedStencil(const CsrMatrix &a,
                                 const PlaneLayout &layout)
    : layout_(layout), nodes(a.rows()),
      planes_(layout.nx, layout.ny, layout.planeOffsets.size())
{
    if (a.cols() != nodes)
        fatal("BorderedStencil: matrix not square");
    const std::size_t nx = layout.nx, ny = layout.ny;
    const std::size_t plane = nx * ny;
    const std::size_t nz = layout.planeOffsets.size();
    const std::size_t cells = plane * nz;

    // slot[node]: the node's flat stencil cell, or cells + its border
    // index.
    std::vector<std::size_t> slot(nodes, kNoSlot);
    for (std::size_t z = 0; z < nz; ++z) {
        const std::size_t off = layout.planeOffsets[z];
        if (off > nodes || plane > nodes - off)
            fatal("BorderedStencil: plane ", z, " runs past node ",
                  nodes);
        for (std::size_t i = 0; i < plane; ++i) {
            if (slot[off + i] != kNoSlot)
                fatal("BorderedStencil: planes overlap at node ",
                      off + i);
            slot[off + i] = z * plane + i;
        }
    }
    for (std::size_t node = 0; node < nodes; ++node) {
        if (slot[node] == kNoSlot) {
            slot[node] = cells + border.size();
            border.push_back(node);
        }
    }
    const std::size_t nb = border.size();
    if (nb > kMaxBorderNodes)
        fatal("BorderedStencil: ", nb, " border nodes exceed the dense "
              "bound of ", kMaxBorderNodes);

    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();

    // Plane rows: the diagonal, and the link to each +axis neighbour
    // (the -axis entries are the same links read from the other
    // side; couplings to the border are read from the border rows).
    for (std::size_t z = 0; z < nz; ++z) {
        for (std::size_t i = 0; i < plane; ++i) {
            const std::size_t c = z * plane + i;
            const std::size_t ix = i % nx, iy = i / nx;
            const std::size_t row = layout.planeOffsets[z] + i;
            for (std::size_t k = rp[row]; k < rp[row + 1]; ++k) {
                const std::size_t s = slot[ci[k]];
                if (s >= cells)
                    continue;
                if (s == c) {
                    planes_.diag[c] = av[k];
                } else if (s == c + 1 && ix + 1 < nx) {
                    planes_.gx[planes_.linkX(ix, iy, z)] = -av[k];
                } else if (s == c + nx && iy + 1 < ny) {
                    planes_.gy[planes_.linkY(ix, iy, z)] = -av[k];
                } else if (s == c + plane && z + 1 < nz) {
                    planes_.gz[planes_.linkZ(ix, iy, z)] = -av[k];
                } else if (!((s + 1 == c && ix > 0) ||
                             (s + nx == c && iy > 0) ||
                             (s + plane == c && z > 0))) {
                    fatal("BorderedStencil: entry (", row, ", ", ci[k],
                          ") joins plane cells that are not stencil "
                          "neighbours");
                }
            }
        }
    }

    // Border rows: the dense block and the coupling to the cells.
    abb.assign(nb * nb, 0.0);
    cpRow.assign(nb + 1, 0);
    for (std::size_t b = 0; b < nb; ++b) {
        const std::size_t row = border[b];
        for (std::size_t k = rp[row]; k < rp[row + 1]; ++k) {
            const std::size_t s = slot[ci[k]];
            if (s >= cells) {
                abb[b * nb + (s - cells)] = av[k];
            } else {
                cpCell.push_back(s);
                cpVal.push_back(av[k]);
            }
        }
        cpRow[b + 1] = cpCell.size();
    }
}

BorderedPreconditioner::BorderedPreconditioner(
    const BorderedStencil &view, std::unique_ptr<Preconditioner> step)
    : nodes(view.nodeCount()),
      planeCells(view.layout().nx * view.layout().ny),
      planeOffsets(view.layout().planeOffsets),
      border(view.borderNodes()), cpRow(view.couplingRows()),
      cpCell(view.couplingCells()), cpVal(view.couplingValues()),
      planeStep(std::move(step))
{
    if (!planeStep)
        fatal("BorderedPreconditioner: no plane step");
    const std::size_t nb = border.size();
    if (nb > 0) {
        // Invert A_bb once (fatal() when singular) and symmetrize the
        // inverse, so the two border solves of a step are exact
        // transposes of each other.
        DenseMatrix abb(nb, nb);
        for (std::size_t i = 0; i < nb; ++i)
            for (std::size_t j = 0; j < nb; ++j)
                abb(i, j) = view.borderBlock()[i * nb + j];
        const DenseMatrix inv =
            LuDecomposition(abb).solve(DenseMatrix::identity(nb));
        abbInv.resize(nb * nb);
        for (std::size_t i = 0; i < nb; ++i)
            for (std::size_t j = 0; j < nb; ++j)
                abbInv[i * nb + j] = 0.5 * (inv(i, j) + inv(j, i));
    }
    const std::size_t cells = planeCells * planeOffsets.size();
    rP.assign(cells, 0.0);
    zP.assign(cells, 0.0);
    rB.assign(nb, 0.0);
    zB.assign(nb, 0.0);
}

void
BorderedPreconditioner::solveBorder() const
{
    const std::size_t nb = border.size();
    for (std::size_t i = 0; i < nb; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < nb; ++j)
            s += abbInv[i * nb + j] * rB[j];
        zB[i] = s;
    }
}

void
BorderedPreconditioner::apply(const std::vector<double> &r,
                              std::vector<double> &z) const
{
    if (r.size() != nodes)
        fatal("BorderedPreconditioner::apply: size mismatch (",
              r.size(), " vs ", nodes, ")");
    const std::size_t nb = border.size();
    for (std::size_t p = 0; p < planeOffsets.size(); ++p)
        std::copy_n(r.begin() + static_cast<std::ptrdiff_t>(
                                    planeOffsets[p]),
                    planeCells,
                    rP.begin() + static_cast<std::ptrdiff_t>(
                                     p * planeCells));
    for (std::size_t b = 0; b < nb; ++b)
        rB[b] = r[border[b]];

    // z_B' = A_bb^-1 r_B, then the planes see r_P - A_pb z_B'.
    solveBorder();
    for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t k = cpRow[b]; k < cpRow[b + 1]; ++k)
            rP[cpCell[k]] -= cpVal[k] * zB[b];
    }
    planeStep->apply(rP, zP);
    // z_B = A_bb^-1 (r_B - A_bp z_P).
    for (std::size_t b = 0; b < nb; ++b) {
        double s = rB[b];
        for (std::size_t k = cpRow[b]; k < cpRow[b + 1]; ++k)
            s -= cpVal[k] * zP[cpCell[k]];
        rB[b] = s;
    }
    solveBorder();

    z.resize(nodes);
    for (std::size_t p = 0; p < planeOffsets.size(); ++p)
        std::copy_n(zP.begin() + static_cast<std::ptrdiff_t>(
                                     p * planeCells),
                    planeCells,
                    z.begin() + static_cast<std::ptrdiff_t>(
                                    planeOffsets[p]));
    for (std::size_t b = 0; b < nb; ++b)
        z[border[b]] = zB[b];
}

std::unique_ptr<Preconditioner>
makeBorderedMultigrid(const CsrMatrix &a, const PlaneLayout &layout)
{
    const BorderedStencil view(a, layout);
    return std::make_unique<BorderedPreconditioner>(
        view, std::make_unique<MultigridPreconditioner>(view.planes()));
}

} // namespace irtherm
