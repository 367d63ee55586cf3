#include "numeric/linear_operator.hh"

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

std::unique_ptr<Preconditioner>
LinearOperator::makePreconditioner(PreconditionerKind) const
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

} // namespace irtherm
