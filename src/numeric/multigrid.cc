#include "numeric/multigrid.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "base/errors.hh"
#include "base/fault_injection.hh"
#include "numeric/dense_matrix.hh"
#include "obs/metrics.hh"

namespace irtherm
{

namespace
{

// ---------------------------------------------------------------------
// Plane kernels. GCC and Clang vector types hold four floats, the
// width every x86-64 and AArch64 target has without extra flags, so
// the cycle's plane loops run four cells at a time in the default
// build (whose -O2 vectorizer leaves loops of unknown trip count
// scalar). A lane applies the same operations in the same order as
// the scalar tail, so no cell's value depends on where a vector
// starts.
// ---------------------------------------------------------------------

using V4 = float __attribute__((vector_size(16)));

inline V4
load4(const float *p)
{
    V4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store4(float *p, V4 v)
{
    std::memcpy(p, &v, sizeof v);
}

inline V4
splat4(float x)
{
    return V4{x, x, x, x};
}

/**
 * One row of r = b - A x: each cell takes its diagonal, y and z
 * terms, then its left x link's and its right x link's. Edge rows
 * pass a shared zero row for the absent y and z neighbours; the two
 * end cells, which lack one x link, are peeled off the vector loop.
 */
void
residualRow(std::size_t nx, const float *bR, const float *dgR,
            const float *xR, const float *wYm, const float *xYm,
            const float *wYp, const float *xYp, const float *wZm,
            const float *xZm, const float *wZp, const float *xZp,
            const float *gxR, float *o)
{
    auto own = [&](std::size_t ix) {
        return bR[ix] - dgR[ix] * xR[ix] + wYm[ix] * xYm[ix] +
               wYp[ix] * xYp[ix] + wZm[ix] * xZm[ix] +
               wZp[ix] * xZp[ix];
    };
    if (nx == 1) {
        o[0] = own(0);
        return;
    }
    o[0] = own(0) + gxR[0] * xR[1];
    std::size_t ix = 1;
    for (; ix + 5 <= nx; ix += 4)
        store4(o + ix,
               load4(bR + ix) - load4(dgR + ix) * load4(xR + ix) +
                   load4(wYm + ix) * load4(xYm + ix) +
                   load4(wYp + ix) * load4(xYp + ix) +
                   load4(wZm + ix) * load4(xZm + ix) +
                   load4(wZp + ix) * load4(xZp + ix) +
                   load4(gxR + ix - 1) * load4(xR + ix - 1) +
                   load4(gxR + ix) * load4(xR + ix + 1));
    for (; ix + 1 < nx; ++ix)
        o[ix] = own(ix) + gxR[ix - 1] * xR[ix - 1] + gxR[ix] * xR[ix + 1];
    o[ix] = own(ix) + gxR[ix - 1] * xR[ix - 1];
}

/** o[i] = (b[i] + w[i] * c[i]) * t[i] for i < n (@p o may be @p b). */
void
carryScale(float *o, const float *b, const float *w, const float *c,
           const float *t, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(o + i, (load4(b + i) + load4(w + i) * load4(c + i)) *
                          load4(t + i));
    for (; i < n; ++i)
        o[i] = (b[i] + w[i] * c[i]) * t[i];
}

/** o[i] *= t[i] for i < n. */
void
scaleBy(float *o, const float *t, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(o + i, load4(o + i) * load4(t + i));
    for (; i < n; ++i)
        o[i] *= t[i];
}

/**
 * Backward Thomas step and damped update for i < n: s = o[i] +
 * u[i] * up[i] is stored to o[i], and x[i] becomes w * s, or with
 * @p Accumulate x[i] + w * s. A null @p up (the top plane) takes
 * s = o[i].
 */
template <bool Accumulate>
void
backSubstitute(float *o, const float *up, const float *u, float *x,
               float w, std::size_t n)
{
    const V4 wv = splat4(w);
    std::size_t i = 0;
    if (up) {
        for (; i + 4 <= n; i += 4) {
            const V4 sv = load4(o + i) + load4(u + i) * load4(up + i);
            store4(o + i, sv);
            store4(x + i, Accumulate ? load4(x + i) + wv * sv : wv * sv);
        }
        for (; i < n; ++i) {
            const float sv = o[i] + u[i] * up[i];
            o[i] = sv;
            x[i] = Accumulate ? x[i] + w * sv : w * sv;
        }
    } else {
        for (; i + 4 <= n; i += 4) {
            const V4 sv = load4(o + i);
            store4(x + i, Accumulate ? load4(x + i) + wv * sv : wv * sv);
        }
        for (; i < n; ++i)
            x[i] = Accumulate ? x[i] + w * o[i] : w * o[i];
    }
}

/** o[i] = w * r[i], or with @p Accumulate o[i] + w * r[i], i < n. */
template <bool Accumulate>
void
scaledRow(float *o, const float *r, float w, std::size_t n)
{
    const V4 wv = splat4(w);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(o + i, Accumulate ? load4(o + i) + wv * load4(r + i)
                                 : wv * load4(r + i));
    for (; i < n; ++i)
        o[i] = Accumulate ? o[i] + w * r[i] : w * r[i];
}

/** o[i] = w0 * r0[i] + w1 * r1[i] for i < n. */
void
blendRows(float *o, const float *r0, float w0, const float *r1, float w1,
          std::size_t n)
{
    const V4 a = splat4(w0), b = splat4(w1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(o + i, a * load4(r0 + i) + b * load4(r1 + i));
    for (; i < n; ++i)
        o[i] = w0 * r0[i] + w1 * r1[i];
}

/**
 * o[i] += w0[i] * r[i0[i]] + w1[i] * r[i1[i]] for i < n: the x pass
 * of the bilinear interpolation, its two gathers loaded lane by lane.
 */
void
interpolateRow(float *o, const float *r, const std::size_t *i0,
               const float *w0, const std::size_t *i1, const float *w1,
               std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const V4 a = {r[i0[i]], r[i0[i + 1]], r[i0[i + 2]], r[i0[i + 3]]};
        const V4 b = {r[i1[i]], r[i1[i + 1]], r[i1[i + 2]], r[i1[i + 3]]};
        store4(o + i, load4(o + i) + (load4(w0 + i) * a + load4(w1 + i) * b));
    }
    for (; i < n; ++i)
        o[i] += w0[i] * r[i0[i]] + w1[i] * r[i1[i]];
}

} // namespace

std::unique_ptr<GridStencilOperator>
MultigridPreconditioner::coarsenLateral(const GridStencilOperator &f)
{
    const std::size_t nx = f.nx_, ny = f.ny_, nz = f.nz_;
    const std::size_t cnx = (nx + 1) / 2;
    const std::size_t cny = (ny + 1) / 2;
    auto out = std::make_unique<GridStencilOperator>(cnx, cny, nz);

    // Diagonal excess over the incident links: the ground stamps
    // (heat-sink faces, film-to-coolant conductances) that must be
    // carried onto the coarse cells verbatim.
    std::vector<double> extra(f.diag);
    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix + 1 < nx; ++ix) {
                const double g = f.gx[f.linkX(ix, iy, iz)];
                extra[f.cellIndex(ix, iy, iz)] -= g;
                extra[f.cellIndex(ix + 1, iy, iz)] -= g;
            }
        }
    }
    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t iy = 0; iy + 1 < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                const double g = f.gy[f.linkY(ix, iy, iz)];
                extra[f.cellIndex(ix, iy, iz)] -= g;
                extra[f.cellIndex(ix, iy + 1, iz)] -= g;
            }
        }
    }
    for (std::size_t iz = 0; iz + 1 < nz; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                const double g = f.gz[f.linkZ(ix, iy, iz)];
                extra[f.cellIndex(ix, iy, iz)] -= g;
                extra[f.cellIndex(ix, iy, iz + 1)] -= g;
            }
        }
    }

    // Lateral links: sum of the fine links crossing the aggregate
    // face, rescaled by 2/(wA+wB) for the widened center-to-center
    // spacing (wA is always 2 when a +axis neighbour aggregate
    // exists; wB shrinks to 1 on odd-sized edges). This keeps the
    // coarse grid a rediscretization of the same conductive medium
    // rather than the 2x-too-stiff piecewise-constant Galerkin sum.
    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t cy = 0; cy < cny; ++cy) {
            const std::size_t y0 = 2 * cy, y1 = std::min(y0 + 2, ny);
            for (std::size_t cx = 0; cx + 1 < cnx; ++cx) {
                const std::size_t ixb = 2 * cx + 1;
                const double wB = std::min<std::size_t>(
                    2, nx - 2 * (cx + 1));
                double sum = 0.0;
                for (std::size_t iy = y0; iy < y1; ++iy)
                    sum += f.gx[f.linkX(ixb, iy, iz)];
                if (sum > 0.0)
                    out->stampLinkX(cx, cy, iz,
                                    sum * 2.0 / (2.0 + wB));
            }
        }
    }
    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t cy = 0; cy + 1 < cny; ++cy) {
            const std::size_t iyb = 2 * cy + 1;
            const double wB =
                std::min<std::size_t>(2, ny - 2 * (cy + 1));
            for (std::size_t cx = 0; cx < cnx; ++cx) {
                const std::size_t x0 = 2 * cx;
                const std::size_t x1 = std::min(x0 + 2, nx);
                double sum = 0.0;
                for (std::size_t ix = x0; ix < x1; ++ix)
                    sum += f.gy[f.linkY(ix, iyb, iz)];
                if (sum > 0.0)
                    out->stampLinkY(cx, cy, iz,
                                    sum * 2.0 / (2.0 + wB));
            }
        }
    }
    // Vertical links: z is not coarsened, so a coarse z link is the
    // plain sum over its lateral aggregate (4x the face area at the
    // same length).
    for (std::size_t iz = 0; iz + 1 < nz; ++iz) {
        for (std::size_t cy = 0; cy < cny; ++cy) {
            const std::size_t y0 = 2 * cy, y1 = std::min(y0 + 2, ny);
            for (std::size_t cx = 0; cx < cnx; ++cx) {
                const std::size_t x0 = 2 * cx;
                const std::size_t x1 = std::min(x0 + 2, nx);
                double sum = 0.0;
                for (std::size_t iy = y0; iy < y1; ++iy) {
                    for (std::size_t ix = x0; ix < x1; ++ix)
                        sum += f.gz[f.linkZ(ix, iy, iz)];
                }
                if (sum > 0.0)
                    out->stampLinkZ(cx, cy, iz, sum);
            }
        }
    }

    for (std::size_t iz = 0; iz < nz; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                out->addToDiagonal(
                    out->cellIndex(ix / 2, iy / 2, iz),
                    extra[f.cellIndex(ix, iy, iz)]);
            }
        }
    }
    return out;
}

MultigridPreconditioner::AxisTransfer
MultigridPreconditioner::makeAxisTransfer(std::size_t fineN,
                                          std::size_t coarseN)
{
    AxisTransfer t;
    t.idx0.resize(fineN);
    t.idx1.resize(fineN);
    t.w0.resize(fineN);
    t.w1.resize(fineN);

    // Geometric centers of the coarse aggregates in fine-cell
    // coordinates (the last aggregate may have width 1).
    std::vector<double> center(coarseN);
    for (std::size_t c = 0; c < coarseN; ++c) {
        const double lo = 2.0 * static_cast<double>(c);
        const double hi = std::min<double>(lo + 2.0,
                                           static_cast<double>(fineN));
        center[c] = 0.5 * (lo + hi);
    }

    for (std::size_t i = 0; i < fineN; ++i) {
        const double tpos = static_cast<double>(i) + 0.5;
        if (coarseN == 1 || tpos <= center.front()) {
            t.idx0[i] = t.idx1[i] = 0;
            t.w0[i] = 1.0f;
            t.w1[i] = 0.0f;
            continue;
        }
        if (tpos >= center.back()) {
            t.idx0[i] = t.idx1[i] = coarseN - 1;
            t.w0[i] = 1.0f;
            t.w1[i] = 0.0f;
            continue;
        }
        std::size_t c = std::min(i / 2, coarseN - 2);
        while (center[c] > tpos)
            --c;
        while (center[c + 1] < tpos)
            ++c;
        const double span = center[c + 1] - center[c];
        const double w1 = (tpos - center[c]) / span;
        t.idx0[i] = c;
        t.idx1[i] = c + 1;
        t.w0[i] = static_cast<float>(1.0 - w1);
        t.w1[i] = static_cast<float>(w1);
    }

    // Reverse (restriction) tables: the transpose. Each coarse cell
    // gathers from at most four fine cells along the axis.
    t.rIdx.assign(4 * coarseN, 0);
    t.rW.assign(4 * coarseN, 0.0f);
    t.rCount.assign(coarseN, 0);
    auto push = [&](std::size_t c, std::size_t i, float w) {
        if (w == 0.0f)
            return;
        std::size_t &cnt = t.rCount[c];
        // Clamped fine cells can contribute through both slots;
        // merge so the transpose stays exact.
        for (std::size_t k = 0; k < cnt; ++k) {
            if (t.rIdx[4 * c + k] == i) {
                t.rW[4 * c + k] += w;
                return;
            }
        }
        if (cnt >= 4)
            fatal("makeAxisTransfer: more than four contributors");
        t.rIdx[4 * c + cnt] = i;
        t.rW[4 * c + cnt] = w;
        ++cnt;
    };
    for (std::size_t i = 0; i < fineN; ++i) {
        push(t.idx0[i], i, t.w0[i]);
        if (t.idx1[i] != t.idx0[i])
            push(t.idx1[i], i, t.w1[i]);
    }
    return t;
}

void
MultigridPreconditioner::factorLines(Level &lv,
                                     const GridStencilOperator &op)
{
    const std::size_t plane = op.nx_ * op.ny_;
    const std::size_t nz = op.nz_;
    // The recurrence runs in double off the double operator; only
    // the factors are stored in float.
    for (std::size_t col = 0; col < plane; ++col) {
        double prevTinv = 0.0;
        for (std::size_t k = 0; k < nz; ++k) {
            const std::size_t i = col + k * plane;
            const double gLo = k > 0 ? op.gz[i - plane] : 0.0;
            const double denom = op.diag[i] - gLo * gLo * prevTinv;
            if (!(denom > 0.0))
                fatal("MultigridPreconditioner: non-SPD line pivot ",
                      denom, " at cell ", i, " of a ", op.nx_, "x",
                      op.ny_, "x", op.nz_, " level");
            const double tinv = 1.0 / denom;
            lv.tinv[i] = static_cast<float>(tinv);
            if (k + 1 < nz)
                lv.tup[i] = static_cast<float>(op.gz[i] * tinv);
            prevTinv = tinv;
        }
    }
}

MultigridPreconditioner::MultigridPreconditioner(
    const GridStencilOperator &fine, const MultigridOptions &o)
    : opts(o)
{
    if (!(opts.omega > 0.0 && opts.omega <= 1.0))
        fatal("MultigridPreconditioner: omega ", opts.omega,
              " outside (0, 1]");
    if (opts.preSmooth == 0 || opts.postSmooth == 0)
        fatal("MultigridPreconditioner: smoother pass counts must be "
              "positive");

    // The double operators drive setup only; the cycle runs on the
    // float copies each Level takes below.
    std::vector<const GridStencilOperator *> ops{&fine};
    std::vector<std::unique_ptr<GridStencilOperator>> coarse;
    const std::size_t coarseBound =
        std::max<std::size_t>(opts.maxCoarseCells, 1);
    while (ops.size() < std::max<std::size_t>(opts.maxLevels, 2)) {
        const GridStencilOperator &cur = *ops.back();
        if (cur.rows() <= coarseBound)
            break;
        if (cur.nx() == 1 && cur.ny() == 1)
            break; // pure z line; the smoother solves it exactly
        coarse.push_back(coarsenLateral(cur));
        ops.push_back(coarse.back().get());
    }

    const GridStencilOperator &bottom = *ops.back();
    exactLine = bottom.nx() == 1 && bottom.ny() == 1 &&
                bottom.rows() > coarseBound;

    levels.resize(ops.size());
    // Lay every level's arrays out in one zeroed allocation: a first
    // pass sizes it, a second points the levels into it. Runs start
    // on 64-byte offsets.
    auto layOut = [&](bool place) {
        std::size_t at = 0;
        auto take = [&](Floats &f, std::size_t n) {
            if (place)
                f = {store.data() + at, n};
            at += (n + 15) & ~std::size_t{15};
        };
        for (std::size_t l = 0; l < levels.size(); ++l) {
            Level &lv = levels[l];
            const GridStencilOperator &op = *ops[l];
            const std::size_t n = op.rows();
            take(lv.diag, n);
            take(lv.gx, op.gx.size());
            take(lv.gy, op.gy.size());
            take(lv.gz, op.gz.size());
            take(lv.zrow, op.nx());
            take(lv.b, n);
            take(lv.x, n);
            take(lv.d, n);
            const bool coarsened = l + 1 < levels.size();
            if (coarsened || exactLine) {
                take(lv.tinv, n);
                take(lv.tup, n);
            }
            if (coarsened) {
                take(lv.rp, op.nx() * op.ny());
                take(lv.rp2, ops[l + 1]->nx() * op.ny());
            }
        }
        return at;
    };
    store.assign(layOut(false), 0.0f);
    layOut(true);

    for (std::size_t l = 0; l < levels.size(); ++l) {
        Level &lv = levels[l];
        const GridStencilOperator &op = *ops[l];
        lv.nx = op.nx_;
        lv.ny = op.ny_;
        lv.nz = op.nz_;
        std::copy(op.diag.begin(), op.diag.end(), lv.diag.data());
        std::copy(op.gx.begin(), op.gx.end(), lv.gx.data());
        std::copy(op.gy.begin(), op.gy.end(), lv.gy.data());
        std::copy(op.gz.begin(), op.gz.end(), lv.gz.data());
        if (l + 1 < levels.size()) {
            const GridStencilOperator &next = *ops[l + 1];
            lv.tx = makeAxisTransfer(op.nx(), next.nx());
            lv.ty = makeAxisTransfer(op.ny(), next.ny());
            factorLines(lv, op);
        }
    }
    Level &last = levels.back();

    if (exactLine) {
        // A 1x1xnz stack is a single tridiagonal: the line solve IS
        // the exact inverse; no LU needed.
        factorLines(last, bottom);
    } else {
        // Direct solve at the bottom of the hierarchy; fatal() if
        // the coarsest grid is singular (then so was the fine one).
        const CsrMatrix csr = bottom.toCsr();
        const std::size_t cn = csr.rows();
        DenseMatrix dense(cn, cn);
        const auto &rp = csr.rowPointers();
        const auto &ci = csr.columnIndices();
        const auto &av = csr.storedValues();
        for (std::size_t r = 0; r < cn; ++r) {
            for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
                dense(r, ci[k]) = av[k];
        }
        coarseLu = std::make_unique<LuDecomposition>(dense);
        luB.assign(cn, 0.0);
        luX.assign(cn, 0.0);
    }

    obs::MetricsRegistry::global().counter("numeric.mg.setups").add();
    obs::MetricsRegistry::global()
        .gauge("numeric.mg.levels")
        .set(static_cast<double>(levels.size()));
}

void
MultigridPreconditioner::residualPlane(const Level &lv, std::size_t k,
                                       float *out) const
{
    const std::size_t nx = lv.nx, ny = lv.ny, nz = lv.nz;
    const std::size_t plane = nx * ny;
    const float *z = lv.zrow.data();
    const float *xv = lv.x.data();
    for (std::size_t iy = 0; iy < ny; ++iy) {
        const std::size_t base = k * plane + iy * nx;
        const float *xR = xv + base;
        residualRow(
            nx, lv.b.data() + base, lv.diag.data() + base, xR,
            iy > 0 ? lv.gy.data() + (k * (ny - 1) + iy - 1) * nx : z,
            iy > 0 ? xR - nx : z,
            iy + 1 < ny ? lv.gy.data() + (k * (ny - 1) + iy) * nx : z,
            iy + 1 < ny ? xR + nx : z,
            k > 0 ? lv.gz.data() + base - plane : z,
            k > 0 ? xR - plane : z,
            k + 1 < nz ? lv.gz.data() + base : z,
            k + 1 < nz ? xR + plane : z,
            lv.gx.data() + (k * ny + iy) * (nx - 1), out + iy * nx);
    }
}

void
MultigridPreconditioner::smoothFromZero(const Level &lv) const
{
    const std::size_t nx = lv.nx, ny = lv.ny, nz = lv.nz;
    const std::size_t plane = nx * ny;
    const float *bd = lv.b.data();
    const float *gz = lv.gz.data();
    const float *ti = lv.tinv.data();
    const float *tu = lv.tup.data();
    const float *z = lv.zrow.data();
    float *dv = lv.d.data();
    float *xd = lv.x.data();
    const float w = static_cast<float>(opts.omega);

    // x == 0: the residual is just b, so the forward Thomas sweep
    // reads only b, gz and the already-final carry plane below.
    for (std::size_t k = 0; k < nz; ++k) {
        const std::size_t pb = k * plane;
        for (std::size_t iy = 0; iy < ny; ++iy) {
            const std::size_t base = pb + iy * nx;
            carryScale(dv + base, bd + base,
                       k > 0 ? gz + base - plane : z,
                       k > 0 ? dv + base - plane : z, ti + base, nx);
        }
    }
    // Backward substitution; x is overwritten (no zero fill needed).
    for (std::size_t k = nz; k-- > 0;) {
        const std::size_t pb = k * plane;
        const float *up = k + 1 < nz ? dv + pb + plane : nullptr;
        backSubstitute<false>(dv + pb, up, tu + pb, xd + pb, w, plane);
    }
}

void
MultigridPreconditioner::smoothJacobi(const Level &lv) const
{
    const std::size_t nx = lv.nx, ny = lv.ny, nz = lv.nz;
    const std::size_t plane = nx * ny;
    const float *gz = lv.gz.data();
    const float *ti = lv.tinv.data();
    const float *tu = lv.tup.data();
    float *dv = lv.d.data();
    float *xd = lv.x.data();
    const float w = static_cast<float>(opts.omega);

    // Forward Thomas recursion, whole z-planes in ascending order:
    // residual of plane k into d, then fold in the k-1 carry (which
    // lives in d of the already-final plane below) and scale by the
    // inverse pivots while the plane is still cache-hot. x is only
    // read.
    for (std::size_t k = 0; k < nz; ++k) {
        const std::size_t pb = k * plane;
        float *o = dv + pb;
        residualPlane(lv, k, o);
        if (k > 0)
            carryScale(o, o, gz + pb - plane, o - plane, ti + pb, plane);
        else
            scaleBy(o, ti + pb, plane);
    }

    // Backward substitution plus damped update, top plane down. d at
    // k+1 already holds the final correction of the plane above.
    for (std::size_t k = nz; k-- > 0;) {
        const std::size_t pb = k * plane;
        const float *up = k + 1 < nz ? dv + pb + plane : nullptr;
        backSubstitute<true>(dv + pb, up, tu + pb, xd + pb, w, plane);
    }
}

void
MultigridPreconditioner::solveExactLine(const Level &lv) const
{
    const std::size_t n = lv.b.size();
    const float *bd = lv.b.data();
    const float *gz = lv.gz.data();
    const float *ti = lv.tinv.data();
    const float *tu = lv.tup.data();
    float *xd = lv.x.data();
    float y = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float lo = i > 0 ? gz[i - 1] * y : 0.0f;
        y = (bd[i] + lo) * ti[i];
        xd[i] = y;
    }
    float s = 0.0f;
    for (std::size_t i = n; i-- > 0;) {
        s = xd[i] + tu[i] * s;
        xd[i] = s;
    }
}

void
MultigridPreconditioner::restrictResidual(const Level &fine,
                                          const Level &coarse) const
{
    const std::size_t fnx = fine.nx, nz = fine.nz;
    const std::size_t cnx = coarse.nx, cny = coarse.ny;
    const std::size_t cplane = cnx * cny;
    float *rp = fine.rp.data();
    float *bd = coarse.b.data();
    const AxisTransfer &tx = fine.tx;
    const AxisTransfer &ty = fine.ty;

    const std::size_t fny = fine.ny;
    float *rp2 = fine.rp2.data();

    // z is not coarsened, so plane k of the coarse RHS gathers only
    // from plane k of the fine residual: evaluate the residual one
    // plane at a time into a reusable buffer (stays cache-hot), then
    // apply the separable restriction as an x pass and a y pass —
    // the full-grid residual array is never materialized and the y
    // pass is a pair of unit-stride row combinations.
    for (std::size_t k = 0; k < nz; ++k) {
        residualPlane(fine, k, rp);
        for (std::size_t iy = 0; iy < fny; ++iy) {
            const float *__restrict row = rp + iy * fnx;
            float *__restrict o = rp2 + iy * cnx;
            for (std::size_t cx = 0; cx < cnx; ++cx) {
                const std::size_t cnt = tx.rCount[cx];
                float sum = 0.0f;
                for (std::size_t j = 0; j < cnt; ++j)
                    sum += tx.rW[4 * cx + j] * row[tx.rIdx[4 * cx + j]];
                o[cx] = sum;
            }
        }
        float *bk = bd + k * cplane;
        for (std::size_t cy = 0; cy < cny; ++cy) {
            float *o = bk + cy * cnx;
            const std::size_t *idx = ty.rIdx.data() + 4 * cy;
            const float *wy = ty.rW.data() + 4 * cy;
            scaledRow<false>(o, rp2 + idx[0] * cnx, wy[0], cnx);
            for (std::size_t j = 1; j < ty.rCount[cy]; ++j)
                scaledRow<true>(o, rp2 + idx[j] * cnx, wy[j], cnx);
        }
    }
}

void
MultigridPreconditioner::prolongCorrect(const Level &coarse,
                                        const Level &fine) const
{
    const std::size_t fnx = fine.nx, fny = fine.ny, nz = fine.nz;
    const std::size_t cnx = coarse.nx, cny = coarse.ny;
    const std::size_t fplane = fnx * fny;
    const float *cd = coarse.x.data();
    float *xd = fine.x.data();
    // rp is free between restriction and the next cycle; reuse it as
    // the y-interpolated intermediate of the separable interpolation
    // (fny rows of cnx values per plane).
    float *yt = fine.rp.data();
    const AxisTransfer &tx = fine.tx;
    const AxisTransfer &ty = fine.ty;

    for (std::size_t fz = 0; fz < nz; ++fz) {
        const float *cz = cd + fz * cny * cnx;
        for (std::size_t fy = 0; fy < fny; ++fy)
            blendRows(yt + fy * cnx, cz + ty.idx0[fy] * cnx, ty.w0[fy],
                      cz + ty.idx1[fy] * cnx, ty.w1[fy], cnx);
        float *xz = xd + fz * fplane;
        for (std::size_t fy = 0; fy < fny; ++fy)
            interpolateRow(xz + fy * fnx, yt + fy * cnx, tx.idx0.data(),
                           tx.w0.data(), tx.idx1.data(), tx.w1.data(),
                           fnx);
    }
}

void
MultigridPreconditioner::apply(const std::vector<double> &r,
                               std::vector<double> &z) const
{
    static obs::Counter &cycles =
        obs::MetricsRegistry::global().counter("numeric.mg.cycles");
    const std::size_t depth = levels.size();
    const Level &top = levels.front();
    const std::size_t n = top.b.size();
    if (r.size() != n)
        fatal("MultigridPreconditioner::apply: size mismatch (",
              r.size(), " vs ", n, ")");
    cycles.add();

    for (std::size_t i = 0; i < n; ++i)
        top.b[i] = static_cast<float>(r[i]);

    for (std::size_t l = 0; l + 1 < depth; ++l) {
        const Level &lv = levels[l];
        smoothFromZero(lv);
        for (std::size_t s = 1; s < opts.preSmooth; ++s)
            smoothJacobi(lv);
        restrictResidual(lv, levels[l + 1]);
    }

    const Level &last = levels.back();
    if (exactLine) {
        solveExactLine(last);
    } else {
        for (std::size_t i = 0; i < luB.size(); ++i)
            luB[i] = static_cast<double>(last.b[i]);
        luX = coarseLu->solve(luB);
        for (std::size_t i = 0; i < luX.size(); ++i)
            last.x[i] = static_cast<float>(luX[i]);
    }

    for (std::size_t l = depth - 1; l-- > 0;) {
        const Level &lv = levels[l];
        prolongCorrect(levels[l + 1], lv);
        for (std::size_t s = 0; s < opts.postSmooth; ++s)
            smoothJacobi(lv);
    }

    z.resize(n);
    const float *xd = top.x.data();
    for (std::size_t i = 0; i < n; ++i)
        z[i] = static_cast<double>(xd[i]);

    if (FaultInjector::global().shouldFire(faultpoint::MgDiverge)) {
        // Emulate a diverging smoother: the cycle output goes
        // non-finite, CG rejects it, and robustSolve demotes to the
        // next tier.
        z.assign(z.size(),
                 std::numeric_limits<double>::quiet_NaN());
    }
}

} // namespace irtherm
