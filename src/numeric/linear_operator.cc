#include "numeric/linear_operator.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace irtherm
{

JacobiPreconditioner::JacobiPreconditioner(
    const std::vector<double> &diag)
    : invDiag(diag)
{
    for (std::size_t i = 0; i < invDiag.size(); ++i) {
        if (invDiag[i] == 0.0)
            fatal("JacobiPreconditioner: zero diagonal at ", i);
        invDiag[i] = 1.0 / invDiag[i];
    }
}

void
JacobiPreconditioner::apply(const std::vector<double> &r,
                            std::vector<double> &z) const
{
    z.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i)
        z[i] = r[i] * invDiag[i];
}

SsorPreconditioner::SsorPreconditioner(const CsrMatrix &a, double omega)
{
    if (a.rows() != a.cols())
        fatal("SsorPreconditioner: matrix not square");
    if (!(omega > 0.0 && omega < 2.0))
        fatal("SsorPreconditioner: omega ", omega, " outside (0, 2)");
    const std::size_t n = a.rows();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    const double scale = omega * (2.0 - omega);

    // Columns are sorted, so each row is its lower entries, then the
    // diagonal (if stored), then its upper entries. Find the split,
    // size both parts exactly, then copy the two ranges.
    lower.rowPtr.assign(n + 1, 0);
    upper.rowPtr.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t *first = ci.data() + rp[r];
        const std::size_t *last = ci.data() + rp[r + 1];
        const std::size_t *diagAt = std::lower_bound(first, last, r);
        const std::size_t *upperAt =
            diagAt != last && *diagAt == r ? diagAt + 1 : diagAt;
        lower.rowPtr[r + 1] =
            lower.rowPtr[r] + static_cast<std::size_t>(diagAt - first);
        upper.rowPtr[r + 1] =
            upper.rowPtr[r] + static_cast<std::size_t>(last - upperAt);
    }
    lower.cols.resize(lower.rowPtr[n]);
    lower.vals.resize(lower.rowPtr[n]);
    upper.cols.resize(upper.rowPtr[n]);
    upper.vals.resize(upper.rowPtr[n]);
    midScale.resize(n);
    invDiag.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t nLower = lower.rowPtr[r + 1] - lower.rowPtr[r];
        const std::size_t nUpper = upper.rowPtr[r + 1] - upper.rowPtr[r];
        const std::size_t diagAt = rp[r] + nLower;
        const std::size_t upperAt = rp[r + 1] - nUpper;
        const double d = diagAt < upperAt ? av[diagAt] : 0.0;
        if (d == 0.0)
            fatal("SsorPreconditioner: zero diagonal at ", r);
        midScale[r] = scale * d;
        invDiag[r] = 1.0 / d;
        for (std::size_t k = 0; k < nLower; ++k) {
            lower.cols[lower.rowPtr[r] + k] = ci[rp[r] + k];
            lower.vals[lower.rowPtr[r] + k] = omega * av[rp[r] + k];
        }
        for (std::size_t k = 0; k < nUpper; ++k) {
            upper.cols[upper.rowPtr[r] + k] = ci[upperAt + k];
            upper.vals[upper.rowPtr[r] + k] = omega * av[upperAt + k];
        }
    }
}

void
SsorPreconditioner::apply(const std::vector<double> &r,
                          std::vector<double> &z) const
{
    // z = w(2-w) (D + wU)^-1 D (D + wL)^-1 r, both triangular solves
    // done in place. Sequential by design: the sweeps carry a loop
    // dependence, which also keeps the result deterministic. Pivot
    // divisions are precomputed reciprocals: the sweeps run once per
    // CG iteration and division does not pipeline.
    const std::size_t n = invDiag.size();
    z.resize(n);
    const double *rd = r.data();
    double *zd = z.data();

    // Forward: (D + wL) t = r. Row i reads only t[c] for c < i, so
    // z[i] still holds r[i] when the row starts (also when z is r).
    const std::size_t *lrp = lower.rowPtr.data();
    const std::size_t *lci = lower.cols.data();
    const double *lv = lower.vals.data();
    for (std::size_t i = 0; i < n; ++i) {
        double acc = rd[i];
        for (std::size_t k = lrp[i]; k < lrp[i + 1]; ++k)
            acc -= lv[k] * zd[lci[k]];
        zd[i] = acc * invDiag[i];
    }
    // Backward: (D + wU) z = w(2-w) D t. Row i reads only z[c] for
    // c > i, which are final, so scaling t[i] as the row starts is
    // the same as scaling all of t before the sweep.
    const std::size_t *urp = upper.rowPtr.data();
    const std::size_t *uci = upper.cols.data();
    const double *uv = upper.vals.data();
    for (std::size_t i = n; i-- > 0;) {
        double acc = zd[i] * midScale[i];
        for (std::size_t k = urp[i]; k < urp[i + 1]; ++k)
            acc -= uv[k] * zd[uci[k]];
        zd[i] = acc * invDiag[i];
    }
}

std::unique_ptr<Ic0Preconditioner>
Ic0Preconditioner::tryFactor(const CsrMatrix &a)
{
    if (a.rows() != a.cols())
        fatal("Ic0Preconditioner: matrix not square");
    const std::size_t n = a.rows();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();

    auto p = std::unique_ptr<Ic0Preconditioner>(new Ic0Preconditioner);
    p->n = n;
    auto &lrp = p->lRowPtr;
    auto &lci = p->lCols;
    auto &lv = p->lVals;
    lrp.assign(n + 1, 0);

    // Lower-triangular pattern of A, diagonal last in each row.
    for (std::size_t i = 0; i < n; ++i) {
        lrp[i] = lv.size();
        bool haveDiag = false;
        for (std::size_t k = rp[i]; k < rp[i + 1] && ci[k] <= i; ++k) {
            lci.push_back(ci[k]);
            lv.push_back(av[k]);
            haveDiag = haveDiag || ci[k] == i;
        }
        if (!haveDiag)
            return nullptr; // structurally missing pivot
    }
    lrp[n] = lv.size();

    // Up-looking factorization over the fixed pattern: for entry
    // (i, j) subtract the sparse dot of rows i and j of L over
    // columns < j, then divide (j < i) or take the root (j == i).
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = lrp[i]; k < lrp[i + 1]; ++k) {
            const std::size_t j = lci[k];
            double s = lv[k];
            std::size_t ki = lrp[i];
            std::size_t kj = lrp[j];
            while (ki < k && kj < lrp[j + 1] && lci[kj] < j) {
                if (lci[ki] == lci[kj]) {
                    s -= lv[ki] * lv[kj];
                    ++ki;
                    ++kj;
                } else if (lci[ki] < lci[kj]) {
                    ++ki;
                } else {
                    ++kj;
                }
            }
            if (j < i) {
                // lv at row j's diagonal (last entry of row j)
                lv[k] = s / lv[lrp[j + 1] - 1];
            } else {
                if (s <= 0.0)
                    return nullptr; // breakdown
                lv[k] = std::sqrt(s);
            }
        }
    }

    // Transpose L so the backward solve walks rows of L^T.
    auto &trp = p->ltRowPtr;
    auto &tci = p->ltCols;
    auto &tv = p->ltVals;
    trp.assign(n + 1, 0);
    for (std::size_t c : lci)
        ++trp[c + 1];
    for (std::size_t i = 0; i < n; ++i)
        trp[i + 1] += trp[i];
    tci.resize(lci.size());
    tv.resize(lv.size());
    std::vector<std::size_t> cursor(trp.begin(), trp.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = lrp[i]; k < lrp[i + 1]; ++k) {
            const std::size_t dst = cursor[lci[k]]++;
            tci[dst] = i;
            tv[dst] = lv[k];
        }
    }
    return p;
}

void
Ic0Preconditioner::apply(const std::vector<double> &r,
                         std::vector<double> &z) const
{
    // Forward L y = r (diagonal last per row), then backward
    // L^T z = y (diagonal first per row of L^T), both in place.
    z = r;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = z[i];
        const std::size_t last = lRowPtr[i + 1] - 1;
        for (std::size_t k = lRowPtr[i]; k < last; ++k)
            acc -= lVals[k] * z[lCols[k]];
        z[i] = acc / lVals[last];
    }
    for (std::size_t i = n; i-- > 0;) {
        double acc = z[i];
        const std::size_t first = ltRowPtr[i];
        for (std::size_t k = first + 1; k < ltRowPtr[i + 1]; ++k)
            acc -= ltVals[k] * z[ltCols[k]];
        z[i] = acc / ltVals[first];
    }
}

std::unique_ptr<Preconditioner>
LinearOperator::makePreconditioner(PreconditionerKind,
                                   double) const
{
    // Operators without structural knowledge can always offer Jacobi.
    return std::make_unique<JacobiPreconditioner>(diagonal());
}

void
CsrOperator::apply(const std::vector<double> &x,
                   std::vector<double> &y) const
{
    m.apply(x, y);
}

void
CsrOperator::applyAccumulate(const std::vector<double> &x,
                             std::vector<double> &y, double alpha) const
{
    m.multiplyAccumulate(x, y, alpha);
}

std::vector<double>
CsrOperator::diagonal() const
{
    return m.diagonal();
}

std::unique_ptr<Preconditioner>
CsrOperator::makePreconditioner(PreconditionerKind kind,
                                double ssorOmega) const
{
    // Geometric coarsening needs grid structure a CSR matrix does
    // not expose; SSOR is the strongest fallback here.
    if (kind == PreconditionerKind::Multigrid)
        kind = PreconditionerKind::Ssor;
    if (kind == PreconditionerKind::Ic0) {
        if (auto ic = Ic0Preconditioner::tryFactor(m))
            return ic;
        kind = PreconditionerKind::Ssor; // graceful degradation
    }
    if (kind == PreconditionerKind::Ssor)
        return std::make_unique<SsorPreconditioner>(m, ssorOmega);
    return std::make_unique<JacobiPreconditioner>(m.diagonal());
}

} // namespace irtherm
