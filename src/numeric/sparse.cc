#include "numeric/sparse.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "base/logging.hh"

namespace irtherm
{

std::vector<double>
CsrMatrix::multiply(const std::vector<double> &x) const
{
    std::vector<double> y;
    apply(x, y);
    return y;
}

void
CsrMatrix::apply(const std::vector<double> &x,
                 std::vector<double> &y) const
{
    if (x.size() != numCols)
        fatal("CsrMatrix::apply: size mismatch");
    y.resize(numRows);
    const std::size_t *rp = rowPtr.data();
    const std::size_t *ci = cols_.data();
    const double *av = values.data();
    const double *xd = x.data();
    double *yd = y.data();
    for (std::size_t r = 0; r < numRows; ++r) {
        double acc = 0.0;
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            acc += av[k] * xd[ci[k]];
        yd[r] = acc;
    }
}

void
CsrMatrix::multiplyAccumulate(const std::vector<double> &x,
                              std::vector<double> &y, double alpha) const
{
    if (x.size() != numCols || y.size() != numRows)
        fatal("CsrMatrix::multiplyAccumulate: size mismatch");
    const std::size_t *rp = rowPtr.data();
    const std::size_t *ci = cols_.data();
    const double *av = values.data();
    const double *xd = x.data();
    double *yd = y.data();
    for (std::size_t r = 0; r < numRows; ++r) {
        double acc = 0.0;
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            acc += av[k] * xd[ci[k]];
        yd[r] += alpha * acc;
    }
}

std::vector<double>
CsrMatrix::diagonal() const
{
    std::vector<double> d(numRows, 0.0);
    for (std::size_t r = 0; r < numRows; ++r) {
        for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
            if (cols_[k] == r) {
                d[r] = values[k];
                break;
            }
        }
    }
    return d;
}

double
CsrMatrix::at(std::size_t r, std::size_t c) const
{
    if (r >= numRows || c >= numCols)
        fatal("CsrMatrix::at: index out of range");
    const auto begin = cols_.begin() + static_cast<std::ptrdiff_t>(rowPtr[r]);
    const auto end = cols_.begin() + static_cast<std::ptrdiff_t>(rowPtr[r + 1]);
    const auto it = std::lower_bound(begin, end, c);
    if (it == end || *it != c)
        return 0.0;
    return values[static_cast<std::size_t>(it - cols_.begin())];
}

bool
CsrMatrix::isSymmetric(double tol) const
{
    if (numRows != numCols)
        return false;
    double max_abs = 0.0;
    for (double v : values)
        max_abs = std::max(max_abs, std::abs(v));
    const double bound = tol * std::max(max_abs, 1e-300);
    // Entry (r, c)'s partner (c, r) sits in row c. Rows are visited in
    // increasing r, so the column each row is asked for only grows:
    // one cursor per row walks it once, O(nnz) in all.
    std::vector<std::size_t> cursor(rowPtr.begin(), rowPtr.end() - 1);
    for (std::size_t r = 0; r < numRows; ++r) {
        for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
            const std::size_t c = cols_[k];
            const std::size_t end = rowPtr[c + 1];
            std::size_t q = cursor[c];
            while (q < end && cols_[q] < r)
                ++q;
            cursor[c] = q;
            const double partner =
                q < end && cols_[q] == r ? values[q] : 0.0;
            if (std::abs(values[k] - partner) > bound)
                return false;
        }
    }
    return true;
}

SparseBuilder::SparseBuilder(std::size_t rows, std::size_t cols)
    : numRows(rows), numCols(cols)
{
    if (rows == 0 || cols == 0)
        fatal("SparseBuilder: zero dimension");
    constexpr std::size_t kIndexLimit = std::size_t{1} << 32;
    if (rows > kIndexLimit || cols > kIndexLimit)
        fatal("SparseBuilder: ", rows, "x", cols,
              " exceeds 32-bit stamp indices");
    diagonal.resize(std::min(rows, cols));
}

void
SparseBuilder::rejectIndex(std::size_t r, std::size_t c)
{
    fatal("SparseBuilder::add: index (", r, ",", c, ") out of range");
}

void
SparseBuilder::rejectConductance(const char *what, double g)
{
    fatal(what, ": negative conductance ", g);
}

CsrMatrix
SparseBuilder::build() const
{
    // Rows up to this length are insertion-sorted; longer ones (the
    // ring strips' rows) go through a merge sort so they stay
    // O(k log k). Both sorts are stable.
    constexpr std::size_t kInsertionSortMax = 32;

    struct Entry
    {
        std::uint32_t col;
        double value;
    };

    // Move each off-diagonal stamp's (column, value) pair into its
    // row's run with a stable counting sort, so each run keeps stamp
    // order and the per-row sort and sum below read contiguous memory.
    std::vector<std::size_t> start(numRows + 1, 0);
    for (const Stamp &s : stamps)
        ++start[s.row + 1];
    for (std::size_t r = 0; r < numRows; ++r)
        start[r + 1] += start[r];
    const std::unique_ptr<Entry[]> entries(new Entry[stamps.size()]);
    {
        std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
        for (const Stamp &s : stamps)
            entries[cursor[s.row]++] = {s.col, s.value};
    }
    auto hasDiagonal = [&](std::size_t r) {
        return r < diagonal.size() && diagonal[r].stamped;
    };

    // Order each run by column and sum each column's duplicates in
    // stamp order, from +0.0, compacting the run in place; the
    // distinct counts plus the stamped diagonals size the CSR arrays
    // exactly.
    CsrMatrix m;
    m.numRows = numRows;
    m.numCols = numCols;
    m.rowPtr.assign(numRows + 1, 0);
    for (std::size_t r = 0; r < numRows; ++r) {
        Entry *row = entries.get() + start[r];
        const std::size_t len = start[r + 1] - start[r];
        if (len <= kInsertionSortMax) {
            for (std::size_t i = 1; i < len; ++i) {
                const Entry x = row[i];
                std::size_t j = i;
                for (; j > 0 && row[j - 1].col > x.col; --j)
                    row[j] = row[j - 1];
                row[j] = x;
            }
        } else {
            std::stable_sort(row, row + len,
                             [](const Entry &a, const Entry &b) {
                                 return a.col < b.col;
                             });
        }
        std::size_t distinct = 0;
        for (std::size_t i = 0; i < len; ++distinct) {
            const std::uint32_t c = row[i].col;
            double acc = 0.0;
            for (; i < len && row[i].col == c; ++i)
                acc += row[i].value;
            row[distinct] = {c, acc};
        }
        m.rowPtr[r + 1] = m.rowPtr[r] + distinct + hasDiagonal(r);
    }

    // Copy the compacted runs out, each diagonal at its column.
    m.cols_.resize(m.rowPtr[numRows]);
    m.values.resize(m.rowPtr[numRows]);
    for (std::size_t r = 0; r < numRows; ++r) {
        const Entry *row = entries.get() + start[r];
        const bool diag = hasDiagonal(r);
        const std::size_t len = m.rowPtr[r + 1] - m.rowPtr[r] - diag;
        std::size_t k = m.rowPtr[r];
        std::size_t i = 0;
        for (; i < len && row[i].col < r; ++i, ++k) {
            m.cols_[k] = row[i].col;
            m.values[k] = row[i].value;
        }
        if (diag) {
            m.cols_[k] = r;
            m.values[k] = diagonal[r].sum;
            ++k;
        }
        for (; i < len; ++i, ++k) {
            m.cols_[k] = row[i].col;
            m.values[k] = row[i].value;
        }
    }
    return m;
}

} // namespace irtherm
