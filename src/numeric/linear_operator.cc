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

SsorPreconditioner::SsorPreconditioner(const CsrMatrix &a_, double w)
    : a(a_), omega(w), diag(a_.diagonal())
{
    if (a.rows() != a.cols())
        fatal("SsorPreconditioner: matrix not square");
    if (!(omega > 0.0 && omega < 2.0))
        fatal("SsorPreconditioner: omega ", omega, " outside (0, 2)");
    const std::size_t n = a.rows();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    upperStart.resize(n);
    invDiag.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        if (diag[r] == 0.0)
            fatal("SsorPreconditioner: zero diagonal at ", r);
        invDiag[r] = 1.0 / diag[r];
        std::size_t k = rp[r];
        while (k < rp[r + 1] && ci[k] <= r)
            ++k;
        upperStart[r] = k;
    }
}

void
SsorPreconditioner::apply(const std::vector<double> &r,
                          std::vector<double> &z) const
{
    // z = w(2-w) (D + wU)^-1 D (D + wL)^-1 r, both triangular solves
    // done in place. Sequential by design: the sweeps carry a loop
    // dependence, which also keeps the result deterministic.
    const std::size_t n = a.rows();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();

    z = r;
    // Forward: (D + wL) t = r. Row entries with col < row are exactly
    // [rowPtr[i], upperStart[i]) minus the diagonal (cols sorted).
    // Pivot divisions are precomputed reciprocals: the sweeps run
    // once per CG iteration and division does not pipeline.
    for (std::size_t i = 0; i < n; ++i) {
        double acc = z[i];
        for (std::size_t k = rp[i]; k < upperStart[i]; ++k) {
            const std::size_t c = ci[k];
            if (c != i)
                acc -= omega * av[k] * z[c];
        }
        z[i] = acc * invDiag[i];
    }
    const double scale = omega * (2.0 - omega);
    for (std::size_t i = 0; i < n; ++i)
        z[i] *= scale * diag[i];
    // Backward: (D + wU) z = t.
    for (std::size_t i = n; i-- > 0;) {
        double acc = z[i];
        for (std::size_t k = upperStart[i]; k < rp[i + 1]; ++k)
            acc -= omega * av[k] * z[ci[k]];
        z[i] = acc * invDiag[i];
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

PreconditionerKind
LinearOperator::builtPreconditioner(PreconditionerKind) const
{
    return PreconditionerKind::Jacobi;
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

PreconditionerKind
CsrOperator::builtPreconditioner(PreconditionerKind kind) const
{
    // Geometric coarsening needs grid structure a CSR matrix does
    // not expose; SSOR is the strongest fallback here.
    return kind == PreconditionerKind::Multigrid
               ? PreconditionerKind::Ssor
               : kind;
}

std::unique_ptr<Preconditioner>
CsrOperator::makePreconditioner(PreconditionerKind kind,
                                double ssorOmega) const
{
    kind = builtPreconditioner(kind);
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
