#include "numeric/sparse.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace irtherm
{

namespace
{

/** Below this many rows a pool dispatch costs more than it saves. */
constexpr std::size_t kParallelRowThreshold = 4096;

/** Run a row-range kernel, parallel above the threshold. */
template <typename Fn>
void
forRows(std::size_t rows, const Fn &fn)
{
    if (rows >= kParallelRowThreshold && ThreadPool::parallelEnabled()) {
        ThreadPool &pool = ThreadPool::global();
        // A one-thread pool would route the kernel through the
        // region machinery for nothing; fall through to the direct
        // call instead.
        if (pool.threadCount() > 1) {
            const std::size_t grain = std::max<std::size_t>(
                256, rows / (4 * pool.threadCount()));
            pool.parallelFor(0, rows, grain, fn);
            return;
        }
    }
    fn(0, rows);
}

} // namespace

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
    forRows(numRows, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            double acc = 0.0;
            for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
                acc += av[k] * xd[ci[k]];
            yd[r] = acc;
        }
    });
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
    forRows(numRows, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            double acc = 0.0;
            for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
                acc += av[k] * xd[ci[k]];
            yd[r] += alpha * acc;
        }
    });
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
}

void
SparseBuilder::add(std::size_t r, std::size_t c, double value)
{
    if (r >= numRows || c >= numCols)
        fatal("SparseBuilder::add: index (", r, ",", c, ") out of range");
    tripRow.push_back(r);
    tripCol.push_back(c);
    tripVal.push_back(value);
}

void
SparseBuilder::stampConductance(std::size_t a, std::size_t b, double g)
{
    if (g < 0.0)
        fatal("stampConductance: negative conductance ", g);
    add(a, a, g);
    add(b, b, g);
    add(a, b, -g);
    add(b, a, -g);
}

void
SparseBuilder::stampGroundConductance(std::size_t a, double g)
{
    if (g < 0.0)
        fatal("stampGroundConductance: negative conductance ", g);
    add(a, a, g);
}

CsrMatrix
SparseBuilder::build() const
{
    // Rows up to this length are insertion-sorted; longer ones (the
    // ring strips' rows) go through a merge sort so they stay
    // O(k log k). Both sorts are stable.
    constexpr std::size_t kInsertionSortMax = 32;

    // Bucket the stamp indices by row with a stable counting sort, so
    // each row's stamps keep the order they were added in. Sorting
    // indices rather than (column, value) copies keeps the scratch at
    // one word per stamp.
    const std::size_t nnz = tripVal.size();
    std::vector<std::size_t> start(numRows + 1, 0);
    for (std::size_t r : tripRow)
        ++start[r + 1];
    for (std::size_t r = 0; r < numRows; ++r)
        start[r + 1] += start[r];
    std::vector<std::size_t> order(nnz);
    {
        std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
        for (std::size_t i = 0; i < nnz; ++i)
            order[cursor[tripRow[i]]++] = i;
    }

    // Order each row by column and count its distinct columns, so the
    // CSR arrays can be sized exactly.
    const std::size_t *col = tripCol.data();
    CsrMatrix m;
    m.numRows = numRows;
    m.numCols = numCols;
    m.rowPtr.assign(numRows + 1, 0);
    for (std::size_t r = 0; r < numRows; ++r) {
        std::size_t *row = order.data() + start[r];
        const std::size_t len = start[r + 1] - start[r];
        if (len <= kInsertionSortMax) {
            for (std::size_t i = 1; i < len; ++i) {
                const std::size_t x = row[i];
                std::size_t j = i;
                for (; j > 0 && col[row[j - 1]] > col[x]; --j)
                    row[j] = row[j - 1];
                row[j] = x;
            }
        } else {
            std::stable_sort(row, row + len,
                             [col](std::size_t a, std::size_t b) {
                                 return col[a] < col[b];
                             });
        }
        std::size_t distinct = 0;
        for (std::size_t i = 0; i < len; ++i)
            distinct += i == 0 || col[row[i]] != col[row[i - 1]];
        m.rowPtr[r + 1] = m.rowPtr[r] + distinct;
    }

    // Sum each column's duplicates in stamp order, from +0.0.
    m.cols_.resize(m.rowPtr[numRows]);
    m.values.resize(m.rowPtr[numRows]);
    for (std::size_t r = 0; r < numRows; ++r) {
        const std::size_t *row = order.data() + start[r];
        const std::size_t len = start[r + 1] - start[r];
        std::size_t k = m.rowPtr[r];
        for (std::size_t i = 0; i < len; ++k) {
            const std::size_t c = col[row[i]];
            double acc = 0.0;
            for (; i < len && col[row[i]] == c; ++i)
                acc += tripVal[row[i]];
            m.cols_[k] = c;
            m.values[k] = acc;
        }
    }
    return m;
}

} // namespace irtherm
