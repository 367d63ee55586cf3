/**
 * @file
 * Compressed-sparse-row matrix plus a triplet-based builder.
 *
 * Grid-mode RC networks have thousands of nodes with a 7-point
 * stencil; CSR keeps matvec cheap for the iterative solvers and the
 * explicit transient integrators.
 */

#ifndef IRTHERM_NUMERIC_SPARSE_HH
#define IRTHERM_NUMERIC_SPARSE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace irtherm
{

/** Immutable CSR matrix; construct through SparseBuilder. */
class CsrMatrix
{
  public:
    CsrMatrix() : numRows(0), numCols(0) { rowPtr.push_back(0); }

    std::size_t rows() const { return numRows; }
    std::size_t cols() const { return numCols; }
    std::size_t nonZeros() const { return values.size(); }

    /** y = A * x. @pre x.size() == cols() */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /**
     * y = A * x, overwriting @p y (resized as needed). Unlike
     * multiplyAccumulate this needs no zero-fill pass, which matters
     * inside solver loops that recompute A p every iteration.
     */
    void apply(const std::vector<double> &x, std::vector<double> &y) const;

    /** y += alpha * A * x, in place. */
    void multiplyAccumulate(const std::vector<double> &x,
                            std::vector<double> &y, double alpha) const;

    /** Extract the diagonal (zeros where no stored entry exists). */
    std::vector<double> diagonal() const;

    /** Element lookup by binary search within the row; 0 if absent. */
    double at(std::size_t r, std::size_t c) const;

    /**
     * Symmetry check: true when |a_ij - a_ji| <= tol * max|a| for all
     * stored entries. Thermal conductance matrices must satisfy this.
     */
    bool isSymmetric(double tol) const;

    /** Raw CSR arrays (row pointers, column indices, values). */
    const std::vector<std::size_t> &rowPointers() const { return rowPtr; }
    const std::vector<std::size_t> &columnIndices() const { return cols_; }
    const std::vector<double> &storedValues() const { return values; }

  private:
    friend class SparseBuilder;

    std::size_t numRows;
    std::size_t numCols;
    std::vector<std::size_t> rowPtr;
    std::vector<std::size_t> cols_;
    std::vector<double> values;
};

/**
 * Accumulating triplet builder: duplicate (row, col) entries are
 * summed, which is exactly the stamping pattern of conductance
 * assembly. Duplicates are summed in the order they were stamped
 * (starting from +0.0), so the assembled values depend only on the
 * stamp sequence.
 *
 * Off-diagonal stamps are kept as one array of 16-byte records
 * (32-bit row and column, the value), so such a stamp is one store
 * into one growing array; dimensions past 2^32 are rejected at
 * construction. A diagonal stamp, about half of a conductance
 * network's, is added straight into its row's running sum: the same
 * sum, taken in the same order.
 */
class SparseBuilder
{
  public:
    SparseBuilder(std::size_t rows, std::size_t cols);

    /** Room for @p count off-diagonal stamps without regrowth. */
    void reserve(std::size_t count) { stamps.reserve(count); }

    /** Stamp a += value at (r, c). */
    void add(std::size_t r, std::size_t c, double value)
    {
        if (r >= numRows || c >= numCols)
            rejectIndex(r, c);
        if (r == c) {
            diagonal[r].sum += value;
            diagonal[r].stamped = true;
            return;
        }
        stamps.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(c), value});
    }

    /**
     * Stamp a two-terminal conductance between nodes @p a and @p b:
     * +g on both diagonals, -g on both off-diagonals.
     */
    void stampConductance(std::size_t a, std::size_t b, double g)
    {
        if (g < 0.0)
            rejectConductance("stampConductance", g);
        add(a, a, g);
        add(b, b, g);
        add(a, b, -g);
        add(b, a, -g);
    }

    /** Stamp a conductance from node @p a to ground: +g on diagonal. */
    void stampGroundConductance(std::size_t a, double g)
    {
        if (g < 0.0)
            rejectConductance("stampGroundConductance", g);
        add(a, a, g);
    }

    /**
     * Produce the CSR matrix (columns strictly increasing within each
     * row, arrays sized to the merged entry count) in O(stamps + rows):
     * a stable counting sort moves each off-diagonal stamp's (column,
     * value) pair into its row's contiguous run, each run is stably
     * sorted by column, duplicates are summed in stamp order, and the
     * diagonal's sum goes in at its column.
     */
    CsrMatrix build() const;

  private:
    struct Stamp
    {
        std::uint32_t row;
        std::uint32_t col;
        double value;
    };

    /** A diagonal entry, summed as its stamps arrive. */
    struct Diagonal
    {
        double sum = 0.0;
        bool stamped = false;
    };

    [[noreturn]] static void rejectIndex(std::size_t r, std::size_t c);
    [[noreturn]] static void rejectConductance(const char *what,
                                               double g);

    std::size_t numRows;
    std::size_t numCols;
    std::vector<Stamp> stamps; ///< off-diagonal stamps
    std::vector<Diagonal> diagonal;
};

} // namespace irtherm

#endif // IRTHERM_NUMERIC_SPARSE_HH
