#include "numeric/sparse_cholesky.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "base/logging.hh"
#include "numeric/vec2.hh"

namespace irtherm
{

namespace
{

using Idx = std::int64_t;

/** Encode node @p i as a negative link (-1 stays "none"). */
constexpr Idx
flip(Idx i)
{
    return -i - 2;
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/**
 * Pattern of A + Aᵀ without the diagonal, as sorted adjacency lists:
 * the graph the ordering eliminates. Merging each row of A with the
 * same row of Aᵀ keeps it O(nnz) and tolerates a one-sided entry.
 */
void
symmetricGraph(const CsrMatrix &a, std::vector<Idx> &ptr,
               MappedVector<Idx> &adj)
{
    const std::size_t n = a.rows();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();

    // Aᵀ's pattern by counting sort; rows come out sorted.
    std::vector<std::size_t> tp(n + 1, 0);
    for (std::size_t c : ci)
        ++tp[c + 1];
    for (std::size_t i = 0; i < n; ++i)
        tp[i + 1] += tp[i];
    MappedVector<std::size_t> ti(ci.size());
    {
        std::vector<std::size_t> cursor(tp.begin(), tp.end() - 1);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
                ti[cursor[ci[k]]++] = r;
    }

    ptr.assign(n + 1, 0);
    adj.clear();
    adj.reserve(2 * ci.size());
    for (std::size_t r = 0; r < n; ++r) {
        std::size_t p = rp[r];
        std::size_t q = tp[r];
        while (p < rp[r + 1] || q < tp[r + 1]) {
            std::size_t c;
            if (q == tp[r + 1] || (p < rp[r + 1] && ci[p] < ti[q])) {
                c = ci[p++];
            } else if (p == rp[r + 1] || ti[q] < ci[p]) {
                c = ti[q++];
            } else {
                c = ci[p++];
                ++q;
            }
            if (c != r)
                adj.push_back(static_cast<Idx>(c));
        }
        ptr[r + 1] = static_cast<Idx>(adj.size());
    }
}

/**
 * Approximate minimum degree ordering (Amestoy, Davis and Duff) of
 * the graph (ptr, adj). Returns the pivot order.
 *
 * The quotient graph lives in one array iw: every uneliminated
 * variable's list holds the elements it touches (elen of them, first)
 * and then its remaining variable neighbours; every element's list
 * holds its variables. Eliminating pivot k merges k's elements into
 * one new element Lk, so storage never grows beyond the original
 * graph plus Lk, which a compaction pass makes room for.
 */
std::vector<std::size_t>
approximateMinimumDegree(std::size_t nNodes, const std::vector<Idx> &ptr,
                         const MappedVector<Idx> &adj)
{
    const Idx n = static_cast<Idx>(nNodes);
    std::vector<std::size_t> order;
    order.reserve(nNodes);
    if (n == 0)
        return order;

    // Rows with more neighbours than this are left out of the graph
    // and ordered last, where their fill costs nothing extra.
    const Idx dense = std::max<Idx>(
        16, static_cast<Idx>(10.0 * std::sqrt(static_cast<double>(n))));
    std::vector<char> isDense(nNodes, 0);
    for (Idx i = 0; i < n; ++i)
        isDense[i] = ptr[i + 1] - ptr[i] > dense && n > dense;

    std::vector<Idx> pe(nNodes), len(nNodes), elen(nNodes, 0),
        nv(nNodes, 1), degree(nNodes), next(nNodes, -1), last(nNodes, -1),
        head(nNodes, -1), hhead(nNodes, -1);
    std::vector<Idx> w(nNodes, 1); // 0 marks a dead element

    const std::size_t iwSize = adj.size() + adj.size() / 5 + 2 * nNodes;
    MappedVector<Idx> iw(iwSize);
    Idx cnz = 0;
    for (Idx i = 0; i < n; ++i) {
        pe[i] = cnz;
        if (!isDense[i]) {
            for (Idx p = ptr[i]; p < ptr[i + 1]; ++p) {
                if (!isDense[adj[p]])
                    iw[cnz++] = adj[p];
            }
        }
        len[i] = cnz - pe[i];
    }

    // Initial degree lists; isolated and dense nodes leave the graph
    // at once (isolated ones are eliminated first, dense ones last).
    Idx nel = 0;
    std::vector<Idx> denseNodes;
    for (Idx i = 0; i < n; ++i) {
        if (isDense[i]) {
            denseNodes.push_back(i);
            nv[i] = 0;
            elen[i] = -1;
            pe[i] = -1;
            w[i] = 0;
            ++nel;
            continue;
        }
        degree[i] = len[i];
        if (len[i] == 0) {
            order.push_back(static_cast<std::size_t>(i));
            elen[i] = -2;
            pe[i] = -1;
            w[i] = 0;
            ++nel;
            continue;
        }
        const Idx d = degree[i];
        if (head[d] != -1)
            last[head[d]] = i;
        next[i] = head[d];
        head[d] = i;
    }

    // Pivots in elimination order; nodes merged into a pivot's
    // supervariable are emitted after it below.
    std::vector<Idx> pivots;
    Idx mindeg = 0;
    Idx lemax = 0;
    Idx mark = 2;
    while (nel < n) {
        // Select the pivot of least approximate degree.
        Idx k = -1;
        for (; mindeg < n && (k = head[mindeg]) == -1; ++mindeg) {
        }
        if (next[k] != -1)
            last[next[k]] = -1;
        head[mindeg] = next[k];
        const Idx elenk = elen[k];
        Idx nvk = nv[k];
        nel += nvk;
        pivots.push_back(k);

        // Make room for Lk by compacting iw: tag the head of every
        // live list with its owner, keep the displaced word in pe,
        // then slide the lists down over the gaps.
        if (elenk > 0 && cnz + mindeg >= static_cast<Idx>(iwSize)) {
            for (Idx j = 0; j < n; ++j) {
                if (pe[j] >= 0 && len[j] > 0) {
                    const Idx saved = iw[pe[j]];
                    iw[pe[j]] = flip(j);
                    pe[j] = saved;
                }
            }
            Idx q = 0;
            for (Idx p = 0; p < cnz;) {
                if (iw[p] < -1) {
                    const Idx j = flip(iw[p]);
                    iw[q] = pe[j];
                    pe[j] = q++;
                    ++p;
                    for (Idx t = 1; t < len[j]; ++t)
                        iw[q++] = iw[p++];
                } else {
                    ++p;
                }
            }
            cnz = q;
        }

        // Lk = k's variables plus those of every element k touches;
        // each joins Lk marked by a negated nv and leaves its degree
        // list. Without elements Lk is built in place over k's list.
        Idx dk = 0;
        nv[k] = -nvk;
        Idx p = pe[k];
        const Idx pk1 = elenk == 0 ? p : cnz;
        Idx pk2 = pk1;
        for (Idx k1 = 1; k1 <= elenk + 1; ++k1) {
            Idx e, pj, ln;
            if (k1 > elenk) {
                e = k;
                pj = p;
                ln = len[k] - elenk;
            } else {
                e = iw[p++];
                pj = pe[e];
                ln = len[e];
            }
            for (Idx k2 = 1; k2 <= ln; ++k2) {
                const Idx i = iw[pj++];
                const Idx nvi = nv[i];
                if (nvi <= 0)
                    continue;
                dk += nvi;
                nv[i] = -nvi;
                iw[pk2++] = i;
                if (next[i] != -1)
                    last[next[i]] = last[i];
                if (last[i] != -1)
                    next[last[i]] = next[i];
                else
                    head[degree[i]] = next[i];
            }
            if (e != k) {
                pe[e] = flip(k); // element e is absorbed into Lk
                w[e] = 0;
            }
        }
        if (elenk != 0)
            cnz = pk2;
        degree[k] = dk;
        pe[k] = pk1;
        len[k] = pk2 - pk1;
        elen[k] = -2;

        // For every element e adjacent to Lk, w[e] - mark becomes
        // |Le \ Lk|, the part of e outside the new element.
        for (Idx pk = pk1; pk < pk2; ++pk) {
            const Idx i = iw[pk];
            const Idx eln = elen[i];
            if (eln <= 0)
                continue;
            const Idx nvi = -nv[i];
            const Idx wnvi = mark - nvi;
            for (Idx q = pe[i]; q < pe[i] + eln; ++q) {
                const Idx e = iw[q];
                if (w[e] >= mark)
                    w[e] -= nvi;
                else if (w[e] != 0)
                    w[e] = degree[e] + wnvi;
            }
        }

        // Approximate external degree of each i in Lk: the sizes of
        // its elements outside Lk plus its variables outside Lk.
        // Elements wholly inside Lk are absorbed; a variable left
        // with nothing but Lk is mass-eliminated along with k. The
        // survivors are hashed on their lists for the
        // indistinguishability test.
        for (Idx pk = pk1; pk < pk2; ++pk) {
            const Idx i = iw[pk];
            if (nv[i] >= 0)
                continue;
            const Idx nvi = -nv[i];
            const Idx p1 = pe[i];
            const Idx p2 = p1 + elen[i] - 1;
            Idx pn = p1;
            Idx d = 0;
            std::uint64_t h = 0;
            for (Idx q = p1; q <= p2; ++q) {
                const Idx e = iw[q];
                if (w[e] == 0)
                    continue;
                const Idx dext = w[e] - mark;
                if (dext > 0) {
                    d += dext;
                    iw[pn++] = e;
                    h += static_cast<std::uint64_t>(e);
                } else {
                    pe[e] = flip(k); // aggressive absorption
                    w[e] = 0;
                }
            }
            elen[i] = pn - p1 + 1;
            const Idx p3 = pn;
            const Idx p4 = p1 + len[i];
            for (Idx q = p2 + 1; q < p4; ++q) {
                const Idx j = iw[q];
                const Idx nvj = nv[j];
                if (nvj <= 0)
                    continue;
                d += nvj;
                iw[pn++] = j;
                h += static_cast<std::uint64_t>(j);
            }
            if (d == 0) {
                pe[i] = flip(k);
                dk -= nvi;
                nvk += nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = std::min(degree[i], d);
                // Put Lk first: the first variable moves to the end
                // and the first element into its slot.
                iw[pn] = iw[p3];
                iw[p3] = iw[p1];
                iw[p1] = k;
                len[i] = pn - p1 + 1;
                const Idx bucket =
                    static_cast<Idx>(h % static_cast<std::uint64_t>(n));
                next[i] = hhead[bucket];
                hhead[bucket] = i;
                last[i] = bucket;
            }
        }
        degree[k] = dk;
        lemax = std::max(lemax, dk);
        mark += lemax + 1;

        // Merge indistinguishable variables of Lk (equal lists) into
        // supervariables; only variables sharing a hash bucket are
        // compared.
        for (Idx pk = pk1; pk < pk2; ++pk) {
            Idx i = iw[pk];
            if (nv[i] >= 0)
                continue;
            const Idx bucket = last[i];
            i = hhead[bucket];
            hhead[bucket] = -1;
            for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
                const Idx ln = len[i];
                const Idx eln = elen[i];
                for (Idx q = pe[i] + 1; q < pe[i] + ln; ++q)
                    w[iw[q]] = mark;
                Idx jlast = i;
                for (Idx j = next[i]; j != -1;) {
                    bool same = len[j] == ln && elen[j] == eln;
                    for (Idx q = pe[j] + 1; same && q < pe[j] + ln; ++q)
                        same = w[iw[q]] == mark;
                    if (same) {
                        pe[j] = flip(i);
                        nv[i] += nv[j];
                        nv[j] = 0;
                        elen[j] = -1;
                        j = next[j];
                        next[jlast] = j;
                    } else {
                        jlast = j;
                        j = next[j];
                    }
                }
            }
        }

        // Finalize Lk: unmark its survivors, bound their degrees by
        // what is left of the graph, and put them back in the lists.
        Idx pLk = pk1;
        for (Idx pk = pk1; pk < pk2; ++pk) {
            const Idx i = iw[pk];
            const Idx nvi = -nv[i];
            if (nvi <= 0)
                continue;
            nv[i] = nvi;
            Idx d = degree[i] + dk - nvi;
            d = std::min(d, n - nel - nvi);
            if (head[d] != -1)
                last[head[d]] = i;
            next[i] = head[d];
            last[i] = -1;
            head[d] = i;
            mindeg = std::min(mindeg, d);
            degree[i] = d;
            iw[pLk++] = i;
        }
        nv[k] = nvk;
        len[k] = pLk - pk1;
        if (len[k] == 0) {
            pe[k] = -1;
            w[k] = 0;
        }
        if (elenk != 0)
            cnz = pLk;
    }

    // Emit each pivot followed by the variables merged into it. A
    // merged variable links (through pe) to the variable it was
    // merged with or to the pivot that mass-eliminated it; following
    // the links ends at a pivot.
    std::vector<Idx> firstMember(nNodes, -1), nextMember(nNodes, -1);
    for (Idx j = 0; j < n; ++j) {
        if (elen[j] != -1 || isDense[j])
            continue;
        Idx r = flip(pe[j]);
        while (elen[r] != -2)
            r = flip(pe[r]);
        nextMember[j] = firstMember[r];
        firstMember[r] = j;
    }
    for (Idx k : pivots) {
        order.push_back(static_cast<std::size_t>(k));
        for (Idx j = firstMember[k]; j != -1; j = nextMember[j])
            order.push_back(static_cast<std::size_t>(j));
    }
    for (Idx j : denseNodes)
        order.push_back(static_cast<std::size_t>(j));
    if (order.size() != nNodes)
        fatal("SparseCholesky: ordering lost nodes (", order.size(),
              " of ", nNodes, ")");
    return order;
}

/**
 * For every pivot k, walk row k's subtree of the elimination tree:
 * climb from each graph neighbour i < k of pivot k towards the root
 * until a node already reached for k. The nodes reached are exactly
 * the columns j with L(k, j) != 0; @p visit(j, k) sees them in
 * increasing k.
 */
template <typename Visit>
void
forEachRowSubtree(const std::vector<Idx> &ptr, const MappedVector<Idx> &adj,
                  const std::vector<std::size_t> &perm,
                  const std::vector<std::size_t> &iperm,
                  const std::vector<std::size_t> &parent,
                  const Visit &visit)
{
    const std::size_t n = perm.size();
    std::vector<std::size_t> reached(n, kNone);
    for (std::size_t k = 0; k < n; ++k) {
        reached[k] = k;
        const std::size_t r = perm[k];
        for (Idx q = ptr[r]; q < ptr[r + 1]; ++q) {
            for (std::size_t i = iperm[static_cast<std::size_t>(adj[q])];
                 i < k && reached[i] != k; i = parent[i]) {
                visit(i, k);
                reached[i] = k;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dense kernels, on the two-lane V2 vectors (numeric/vec2.hh). Every
// entry sees the same operations in the same order whichever tile
// computes it, so a kernel's answer does not depend on how the loops
// are blocked.
// ---------------------------------------------------------------------

/** y[r] -= alpha · x[r] for r < k. */
inline void
subtractScaled(double *y, const double *x, double alpha, std::size_t k)
{
    const V2 a = splat(alpha);
    std::size_t r = 0;
    for (; r + 2 <= k; r += 2)
        store2(y + r, load2(y + r) - load2(x + r) * a);
    for (; r < k; ++r)
        y[r] -= x[r] * alpha;
}

/**
 * y[i] -= a[0][i]·b[0], then a[1][i]·b[1], a[2][i]·b[2] and
 * a[3][i]·b[3], for i < m: four columns' products subtracted in one
 * pass over y, each entry still taking the columns in order.
 */
inline void
subtractFourScaled(double *y, const double *const a[4], const double *b,
                   std::size_t m)
{
    const double *a0 = a[0], *a1 = a[1], *a2 = a[2], *a3 = a[3];
    const V2 s0 = splat(b[0]), s1 = splat(b[1]);
    const V2 s2 = splat(b[2]), s3 = splat(b[3]);
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2)
        store2(y + i, load2(y + i) - load2(a0 + i) * s0 -
                          load2(a1 + i) * s1 - load2(a2 + i) * s2 -
                          load2(a3 + i) * s3);
    for (; i < m; ++i)
        y[i] = y[i] - a0[i] * b[0] - a1[i] * b[1] - a2[i] * b[2] -
               a3[i] * b[3];
}

/** y[r] /= d for r < k. */
inline void
divideBy(double *y, double d, std::size_t k)
{
    const V2 v = splat(d);
    std::size_t r = 0;
    for (; r + 2 <= k; r += 2)
        store2(y + r, load2(y + r) / v);
    for (; r < k; ++r)
        y[r] /= d;
}

/**
 * C -= A · Bᵀ, one product at a time in increasing p:
 * c[i + j·ldc] -= a[i + p·lda] · b[j·bj + p·bp] for i < m, j < n,
 * p < k. A and C are column-major; B's two strides let the same
 * kernel read B or Bᵀ from a column-major block. Tiles of 4 rows by
 * 4 columns keep eight two-double accumulators in registers.
 */
void
subtractProducts(std::size_t m, std::size_t n, std::size_t k,
                 const double *a, std::size_t lda, const double *b,
                 std::size_t bj, std::size_t bp, double *c,
                 std::size_t ldc)
{
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        double *c0 = c + j * ldc;
        double *c1 = c0 + ldc;
        double *c2 = c1 + ldc;
        double *c3 = c2 + ldc;
        const double *bcol = b + j * bj;
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            V2 x0 = load2(c0 + i), y0 = load2(c0 + i + 2);
            V2 x1 = load2(c1 + i), y1 = load2(c1 + i + 2);
            V2 x2 = load2(c2 + i), y2 = load2(c2 + i + 2);
            V2 x3 = load2(c3 + i), y3 = load2(c3 + i + 2);
            const double *ap = a + i;
            const double *bq = bcol;
            for (std::size_t p = 0; p < k; ++p, ap += lda, bq += bp) {
                const V2 u = load2(ap);
                const V2 v = load2(ap + 2);
                const V2 s0 = splat(bq[0]);
                const V2 s1 = splat(bq[bj]);
                const V2 s2 = splat(bq[2 * bj]);
                const V2 s3 = splat(bq[3 * bj]);
                x0 -= u * s0;
                y0 -= v * s0;
                x1 -= u * s1;
                y1 -= v * s1;
                x2 -= u * s2;
                y2 -= v * s2;
                x3 -= u * s3;
                y3 -= v * s3;
            }
            store2(c0 + i, x0);
            store2(c0 + i + 2, y0);
            store2(c1 + i, x1);
            store2(c1 + i + 2, y1);
            store2(c2 + i, x2);
            store2(c2 + i + 2, y2);
            store2(c3 + i, x3);
            store2(c3 + i + 2, y3);
        }
        for (; i + 2 <= m; i += 2) {
            V2 x0 = load2(c0 + i), x1 = load2(c1 + i);
            V2 x2 = load2(c2 + i), x3 = load2(c3 + i);
            const double *ap = a + i;
            const double *bq = bcol;
            for (std::size_t p = 0; p < k; ++p, ap += lda, bq += bp) {
                const V2 u = load2(ap);
                x0 -= u * splat(bq[0]);
                x1 -= u * splat(bq[bj]);
                x2 -= u * splat(bq[2 * bj]);
                x3 -= u * splat(bq[3 * bj]);
            }
            store2(c0 + i, x0);
            store2(c1 + i, x1);
            store2(c2 + i, x2);
            store2(c3 + i, x3);
        }
        for (; i < m; ++i) {
            double x0 = c0[i], x1 = c1[i], x2 = c2[i], x3 = c3[i];
            const double *ap = a + i;
            const double *bq = bcol;
            for (std::size_t p = 0; p < k; ++p, ap += lda, bq += bp) {
                x0 -= *ap * bq[0];
                x1 -= *ap * bq[bj];
                x2 -= *ap * bq[2 * bj];
                x3 -= *ap * bq[3 * bj];
            }
            c0[i] = x0;
            c1[i] = x1;
            c2[i] = x2;
            c3[i] = x3;
        }
    }
    for (; j < n; ++j) {
        double *cj = c + j * ldc;
        const double *bcol = b + j * bj;
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            V2 x = load2(cj + i), y = load2(cj + i + 2);
            const double *ap = a + i;
            const double *bq = bcol;
            for (std::size_t p = 0; p < k; ++p, ap += lda, bq += bp) {
                const V2 s = splat(*bq);
                x -= load2(ap) * s;
                y -= load2(ap + 2) * s;
            }
            store2(cj + i, x);
            store2(cj + i + 2, y);
        }
        for (; i + 2 <= m; i += 2) {
            V2 x = load2(cj + i);
            const double *ap = a + i;
            const double *bq = bcol;
            for (std::size_t p = 0; p < k; ++p, ap += lda, bq += bp)
                x -= load2(ap) * splat(*bq);
            store2(cj + i, x);
        }
        for (; i < m; ++i) {
            double x = cj[i];
            const double *ap = a + i;
            const double *bq = bcol;
            for (std::size_t p = 0; p < k; ++p, ap += lda, bq += bp)
                x -= *ap * *bq;
            cj[i] = x;
        }
    }
}

/**
 * Columns per panel: a supernode's block is stored, and its own
 * columns factored, kPanelBlock columns at a time.
 */
constexpr std::size_t kPanelBlock = 16;

/**
 * Distance in a supernode's values, with @p nr rows, from column
 * c - 1 to column @p c: the row count of c's panel. The
 * substitutions step their column pointers by it.
 */
inline std::size_t
columnStep(std::size_t nr, std::size_t c)
{
    return nr - c / kPanelBlock * kPanelBlock;
}

/**
 * Right-hand sides per pass of the k-column solve: a multiple of the
 * kernels' four-row tile, and few enough that the row-major scratch
 * (n × 8 doubles) stays a fraction of the factor however many columns
 * (floorplan blocks) are solved.
 */
constexpr std::size_t kSolveColumns = 8;

} // namespace

std::size_t
SparseCholesky::columnOffset(std::size_t s, std::size_t c) const
{
    // Panel i holds P columns of nr - i·P rows, so panels 0 .. b-1
    // take P·(b·nr - P·b(b-1)/2) entries; panel b starts at row top,
    // and column c's entry t sits t - top rows into its column.
    const std::size_t nr = rowStart[s + 1] - rowStart[s];
    const std::size_t b = c / kPanelBlock;
    const std::size_t top = b * kPanelBlock;
    return valStart[s] + kPanelBlock * (b * nr - top * (b - 1) / 2) +
           (c - top) * (nr - top) - top;
}

SparseCholesky::SparseCholesky(const CsrMatrix &a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        fatal("SparseCholesky: matrix is not square");
    if (n >= std::numeric_limits<std::uint32_t>::max())
        fatal("SparseCholesky: ", n, " rows exceed the index range");

    // The graph and the ordering's scratch are freed on return, before
    // any numeric work.
    std::vector<Idx> ptr;
    MappedVector<Idx> adj;
    symmetricGraph(a, ptr, adj);
    perm = approximateMinimumDegree(n, ptr, adj);
    iperm.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        iperm[perm[k]] = k;

    // Elimination tree of P A Pᵀ (Liu), path-compressed through
    // ancestor links.
    std::vector<std::size_t> parent(n, kNone);
    {
        std::vector<std::size_t> ancestor(n, kNone);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t r = perm[k];
            for (Idx q = ptr[r]; q < ptr[r + 1]; ++q) {
                std::size_t i = iperm[static_cast<std::size_t>(adj[q])];
                while (i != kNone && i < k) {
                    const std::size_t up = ancestor[i];
                    ancestor[i] = k;
                    if (up == kNone)
                        parent[i] = k;
                    i = up;
                }
            }
        }
    }

    // Column counts, one row subtree at a time.
    std::vector<std::size_t> count(n, 1);
    forEachRowSubtree(ptr, adj, perm, iperm, parent,
                      [&count](std::size_t j, std::size_t) { ++count[j]; });
    for (std::size_t c : count) {
        nnzL += c;
        flops += static_cast<double>(c) * static_cast<double>(c);
    }

    // Supernodes: column j joins j-1's when it is j-1's parent and
    // holds exactly j-1's rows below j-1 (the counts say so).
    superStart.assign(1, 0);
    for (std::size_t j = 1; j < n; ++j) {
        if (parent[j - 1] != j || count[j - 1] != count[j] + 1)
            superStart.push_back(j);
    }
    if (n > 0)
        superStart.push_back(n);
    const std::size_t ns = supernodeCount();
    std::vector<std::size_t> superOf(n);
    rowStart.assign(ns + 1, 0);
    valStart.assign(ns + 1, 0);
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t f = superStart[s];
        const std::size_t w = superStart[s + 1] - f;
        for (std::size_t j = f; j < f + w; ++j)
            superOf[j] = s;
        rowStart[s + 1] = rowStart[s] + count[f];
        valStart[s + 1] = valStart[s];
        for (std::size_t top = 0; top < w; top += kPanelBlock)
            valStart[s + 1] +=
                (count[f] - top) * std::min(kPanelBlock, w - top);
    }

    // Row lists: a supernode's own columns, then every row k whose
    // row subtree reaches it. Climbing the supernodal tree (the
    // elimination tree with each supernode as one node) from each
    // neighbour i < k of pivot k marks those supernodes, in
    // increasing k, so every list comes out sorted.
    std::vector<std::size_t> superParent(ns, kNone), cursor(ns);
    rowIdx.assign(rowStart.back(), 0);
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t last = superStart[s + 1] - 1;
        if (parent[last] != kNone)
            superParent[s] = superOf[parent[last]];
        cursor[s] = rowStart[s];
        for (std::size_t j = superStart[s]; j <= last; ++j)
            rowIdx[cursor[s]++] = static_cast<std::uint32_t>(j);
    }
    std::vector<std::size_t> reached(ns, kNone);
    for (std::size_t k = 0; k < n; ++k) {
        reached[superOf[k]] = k;
        const std::size_t r = perm[k];
        for (Idx q = ptr[r]; q < ptr[r + 1]; ++q) {
            const std::size_t i = iperm[static_cast<std::size_t>(adj[q])];
            if (i >= k)
                continue;
            for (std::size_t s = superOf[i]; reached[s] != k;
                 s = superParent[s]) {
                rowIdx[cursor[s]++] = static_cast<std::uint32_t>(k);
                reached[s] = k;
            }
        }
    }
    for (std::size_t s = 0; s < ns; ++s) {
        if (cursor[s] != rowStart[s + 1])
            fatal("SparseCholesky: supernode ", s, " holds ",
                  cursor[s] - rowStart[s], " rows, its count says ",
                  rowStart[s + 1] - rowStart[s]);
    }
}

bool
SparseCholesky::factor(const CsrMatrix &a)
{
    const std::size_t n = dimension();
    if (a.rows() != n || a.cols() != n)
        fatal("SparseCholesky::factor: matrix size changed");
    ok = false;
    why.clear();
    const auto &rp = a.rowPointers();
    const auto &ci = a.columnIndices();
    const auto &av = a.storedValues();
    const std::size_t ns = supernodeCount();
    values.assign(valStart.back(), 0.0);

    // Left-looking: supernode J gathers A's columns, subtracts the
    // contribution of every earlier supernode K with rows in J's
    // columns, then factors its own block. Each K waits in the list
    // of the supernode holding the row it updates next (nextRow[K]
    // indexes that row in K's list), so each update is found in O(1)
    // and the lists together hold every supernode at most once.
    std::vector<std::size_t> superOf(n);
    for (std::size_t s = 0; s < ns; ++s)
        for (std::size_t j = superStart[s]; j < superStart[s + 1]; ++j)
            superOf[j] = s;
    std::vector<std::size_t> listHead(ns, kNone), listNext(ns, kNone),
        nextRow(ns, 0);
    // relPos[i]: row i's position in the current supernode's list,
    // valid while owner[i] names that supernode.
    std::vector<std::uint32_t> relPos(n);
    std::vector<std::size_t> owner(n, kNone);
    std::vector<std::uint32_t> rel;
    std::vector<double> update;
    const std::uint32_t *ri = rowIdx.data();
    const auto enqueue = [&](std::size_t s, std::size_t at) {
        nextRow[s] = at;
        const std::size_t target = superOf[ri[at]];
        listNext[s] = listHead[target];
        listHead[target] = s;
    };

    for (std::size_t J = 0; J < ns; ++J) {
        const std::size_t f = superStart[J];
        const std::size_t l = superStart[J + 1];
        const std::size_t w = l - f;
        const std::size_t r0 = rowStart[J];
        const std::size_t nr = rowStart[J + 1] - r0;
        double *vals = values.data();
        for (std::size_t t = 0; t < nr; ++t) {
            relPos[ri[r0 + t]] = static_cast<std::uint32_t>(t);
            owner[ri[r0 + t]] = J;
        }
        for (std::size_t j = f; j < l; ++j) {
            double *col = vals + columnOffset(J, j - f);
            const std::size_t r = perm[j];
            for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
                const std::size_t i = iperm[ci[q]];
                if (i < j)
                    continue;
                if (owner[i] != J)
                    fatal("SparseCholesky::factor: matrix pattern "
                          "changed");
                col[relPos[i]] = av[q];
            }
        }

        for (std::size_t K = listHead[J]; K != kNone;) {
            const std::size_t after = listNext[K];
            const std::size_t p = nextRow[K];
            const std::size_t end = rowStart[K + 1];
            std::size_t q = p;
            while (q < end && ri[q] < l)
                ++q;
            const std::size_t m = end - p;
            const std::size_t nc = q - p;
            const std::size_t kw = superStart[K + 1] - superStart[K];
            const std::size_t kr = end - rowStart[K];
            const std::size_t pr = p - rowStart[K];
            rel.resize(m);
            for (std::size_t i = 0; i < m; ++i)
                rel[i] = relPos[ri[p + i]];
            if (kw == 1) {
                // One column: subtract its products straight from the
                // target.
                const double *lk = vals + valStart[K] + pr;
                for (std::size_t c = 0; c < nc; ++c) {
                    double *dst = vals + columnOffset(J, ri[p + c] - f);
                    const double lc = lk[c];
                    for (std::size_t i = c; i < m; ++i)
                        dst[rel[i]] -= lk[i] * lc;
                }
            } else {
                // At most kPanelBlock target columns at a time, each
                // chunk from its own first row down: the scratch stays
                // small and the part above the target diagonal is
                // never computed.
                for (std::size_t c0 = 0; c0 < nc; c0 += kPanelBlock) {
                    const std::size_t c1 = std::min(nc, c0 + kPanelBlock);
                    const std::size_t mc = m - c0;
                    update.assign(mc * (c1 - c0), 0.0);
                    for (std::size_t top = 0; top < kw; top += kPanelBlock) {
                        const double *lk =
                            vals + columnOffset(K, top) + pr + c0;
                        subtractProducts(
                            mc, c1 - c0, std::min(kPanelBlock, kw - top),
                            lk, kr - top, lk, 1, kr - top, update.data(),
                            mc);
                    }
                    for (std::size_t c = c0; c < c1; ++c) {
                        double *dst = vals + columnOffset(J, ri[p + c] - f);
                        const double *src = update.data() + (c - c0) * mc;
                        for (std::size_t i = c; i < m; ++i)
                            dst[rel[i]] += src[i - c0];
                    }
                }
            }
            if (q < end)
                enqueue(K, q);
            K = after;
        }

        // The supernode's own block: a blocked left-looking dense
        // Cholesky, one panel at a time.
        for (std::size_t c0 = 0; c0 < w; c0 += kPanelBlock) {
            const std::size_t c1 = std::min(w, c0 + kPanelBlock);
            for (std::size_t top = 0; top < c0; top += kPanelBlock) {
                const double *lt = vals + columnOffset(J, top) + c0;
                subtractProducts(nr - c0, c1 - c0, kPanelBlock, lt,
                                 nr - top, lt, 1, nr - top,
                                 vals + columnOffset(J, c0) + c0, nr - c0);
            }
            for (std::size_t c = c0; c < c1; ++c) {
                double *col = vals + columnOffset(J, c);
                for (std::size_t t = c0; t < c; ++t) {
                    const double *lt = vals + columnOffset(J, t);
                    subtractScaled(col + c, lt + c, lt[c], nr - c);
                }
                const double d = col[c];
                if (!(d > 0.0) || !std::isfinite(d)) {
                    const std::size_t j = f + c;
                    why = "pivot " + std::to_string(j) + " (row " +
                          std::to_string(perm[j]) + ") is " +
                          std::to_string(d);
                    values.clear();
                    values.shrink_to_fit();
                    return false;
                }
                const double ljj = std::sqrt(d);
                col[c] = ljj;
                divideBy(col + c + 1, ljj, nr - c - 1);
            }
        }
        if (nr > w)
            enqueue(J, r0 + w);
    }
    work.assign(n, 0.0);
    std::size_t mostBelow = 0;
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t m = rowStart[s + 1] - rowStart[s] -
                              (superStart[s + 1] - superStart[s]);
        mostBelow = std::max(mostBelow, m);
    }
    below.assign(mostBelow, 0.0);
    ok = true;
    return true;
}

void
SparseCholesky::solve(const std::vector<double> &b, std::vector<double> &x)
{
    const std::size_t n = dimension();
    if (!ok)
        fatal("SparseCholesky::solve: matrix is not factored");
    if (b.size() != n)
        fatal("SparseCholesky::solve: size mismatch");
    const std::size_t ns = supernodeCount();
    const std::uint32_t *ri = rowIdx.data();
    double *y = work.data();
    double *g = below.data();
    for (std::size_t k = 0; k < n; ++k)
        y[k] = b[perm[k]];
    // L y = P b. A one-column supernode subtracts its column from the
    // rows below it in place. A wider one solves its diagonal triangle
    // on y[f, f + w), gathers its m rows below into g, subtracts its
    // columns from g four at a time and scatters g back. Per entry,
    // the columns come in increasing order either way.
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t f = superStart[s];
        const std::size_t w = superStart[s + 1] - f;
        const std::uint32_t *rows = ri + rowStart[s];
        const std::size_t nr = rowStart[s + 1] - rowStart[s];
        const std::size_t m = nr - w;
        const double *col = values.data() + valStart[s];
        if (w == 1) {
            const double yj = y[f] / col[0];
            y[f] = yj;
            for (std::size_t t = 1; t < nr; ++t)
                y[rows[t]] -= col[t] * yj;
            continue;
        }
        double *yf = y + f;
        for (std::size_t c = 0; c < w; col += columnStep(nr, ++c)) {
            const double yj = yf[c] / col[c];
            yf[c] = yj;
            for (std::size_t t = c + 1; t < w; ++t)
                yf[t] -= col[t] * yj;
        }
        if (m == 0)
            continue;
        for (std::size_t i = 0; i < m; ++i)
            g[i] = y[rows[w + i]];
        col = values.data() + valStart[s] + w;
        std::size_t c = 0;
        for (; c + 4 <= w; c += 4) {
            const double *four[4];
            for (std::size_t j = 0; j < 4; ++j) {
                four[j] = col;
                col += columnStep(nr, c + j + 1);
            }
            subtractFourScaled(g, four, yf + c, m);
        }
        for (; c < w; col += columnStep(nr, ++c))
            subtractScaled(g, col, yf[c], m);
        for (std::size_t i = 0; i < m; ++i)
            y[rows[w + i]] = g[i];
    }
    // Lᵀ z = y. Per entry, the rows below the supernode in increasing
    // order, then the rows inside it. A wider supernode gathers its
    // rows below into g once and runs four columns' dot products with
    // g side by side, each its own chain in row order, before it
    // solves its triangle.
    for (std::size_t s = ns; s-- > 0;) {
        const std::size_t f = superStart[s];
        const std::size_t w = superStart[s + 1] - f;
        const std::uint32_t *rows = ri + rowStart[s];
        const std::size_t nr = rowStart[s + 1] - rowStart[s];
        const std::size_t m = nr - w;
        if (w == 1) {
            const double *col = values.data() + valStart[s];
            double sum = y[f];
            for (std::size_t t = 1; t < nr; ++t)
                sum -= col[t] * y[rows[t]];
            y[f] = sum / col[0];
            continue;
        }
        if (m > 0) {
            for (std::size_t i = 0; i < m; ++i)
                g[i] = y[rows[w + i]];
            for (std::size_t top = 0; top < w; top += kPanelBlock)
                subtractProducts(1, std::min(kPanelBlock, w - top), m, g, 1,
                                 values.data() + columnOffset(s, top) + w,
                                 nr - top, 1, y + f + top, 1);
        }
        const double *col = values.data() + columnOffset(s, w - 1);
        for (std::size_t c = w; c-- > 0;) {
            double sum = y[f + c];
            for (std::size_t t = c + 1; t < w; ++t)
                sum -= col[t] * y[f + t];
            y[f + c] = sum / col[c];
            if (c > 0)
                col -= columnStep(nr, c);
        }
    }
    x.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        x[perm[k]] = y[k];
}

void
SparseCholesky::solve(std::vector<double> &bx, std::size_t k)
{
    const std::size_t n = dimension();
    if (!ok)
        fatal("SparseCholesky::solve: matrix is not factored");
    if (bx.size() != n * k)
        fatal("SparseCholesky::solve: size mismatch");
    // Y holds each pivot row's values together (row-major), so every
    // row operation is one contiguous vector; each pass of
    // kSolveColumns columns rereads L.
    MappedVector<double> ybuf(n * std::min(k, kSolveColumns));
    std::vector<double> gather;
    for (std::size_t r0 = 0; r0 < k; r0 += kSolveColumns) {
        const std::size_t kc = std::min(kSolveColumns, k - r0);
        double *y = ybuf.data();
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t r = 0; r < kc; ++r)
                y[i * kc + r] = bx[perm[i] + (r0 + r) * n];
        substitute(y, kc, gather);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t r = 0; r < kc; ++r)
                bx[perm[i] + (r0 + r) * n] = y[i * kc + r];
    }
}

void
SparseCholesky::substitute(double *y, std::size_t k,
                           std::vector<double> &gather) const
{
    const std::size_t ns = supernodeCount();
    const std::uint32_t *ri = rowIdx.data();
    // Forward: per entry, the same subtractions in the same order as
    // solve(): columns in increasing order.
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t f = superStart[s];
        const std::size_t w = superStart[s + 1] - f;
        const std::uint32_t *rows = ri + rowStart[s];
        const std::size_t nr = rowStart[s + 1] - rowStart[s];
        const std::size_t m = nr - w;
        const double *blk = values.data() + valStart[s];
        const double *col = blk;
        for (std::size_t c = 0; c < w; col += columnStep(nr, ++c)) {
            double *yc = y + (f + c) * k;
            divideBy(yc, col[c], k);
            for (std::size_t t = c + 1; t < w; ++t)
                subtractScaled(y + (f + t) * k, yc, col[t], k);
        }
        if (m == 0)
            continue;
        if (w == 1) {
            for (std::size_t t = 1; t < nr; ++t)
                subtractScaled(y + rows[t] * k, y + f * k, blk[t], k);
            continue;
        }
        // The rows below as a k×m column-major block: subtract
        // Y(own columns)ᵀ · L(below, own columns)ᵀ, then put back.
        gather.resize(m * k);
        for (std::size_t i = 0; i < m; ++i)
            std::memcpy(gather.data() + i * k, y + rows[w + i] * k,
                        k * sizeof(double));
        for (std::size_t top = 0; top < w; top += kPanelBlock)
            subtractProducts(k, m, std::min(kPanelBlock, w - top),
                             y + (f + top) * k, k,
                             values.data() + columnOffset(s, top) + w, 1,
                             nr - top, gather.data(), k);
        for (std::size_t i = 0; i < m; ++i)
            std::memcpy(y + rows[w + i] * k, gather.data() + i * k,
                        k * sizeof(double));
    }

    // Backward: per entry, as solve() does, the rows below the
    // supernode in increasing order, then the rows inside it.
    for (std::size_t s = ns; s-- > 0;) {
        const std::size_t f = superStart[s];
        const std::size_t w = superStart[s + 1] - f;
        const std::uint32_t *rows = ri + rowStart[s];
        const std::size_t nr = rowStart[s + 1] - rowStart[s];
        const std::size_t m = nr - w;
        const double *blk = values.data() + valStart[s];
        if (w == 1) {
            for (std::size_t t = 1; t < nr; ++t)
                subtractScaled(y + f * k, y + rows[t] * k, blk[t], k);
        } else if (m > 0) {
            gather.resize(m * k);
            for (std::size_t i = 0; i < m; ++i)
                std::memcpy(gather.data() + i * k, y + rows[w + i] * k,
                            k * sizeof(double));
            for (std::size_t top = 0; top < w; top += kPanelBlock)
                subtractProducts(k, std::min(kPanelBlock, w - top), m,
                                 gather.data(), k,
                                 values.data() + columnOffset(s, top) + w,
                                 nr - top, 1, y + (f + top) * k, k);
        }
        const double *col = values.data() + columnOffset(s, w - 1);
        for (std::size_t c = w; c-- > 0;) {
            double *yc = y + (f + c) * k;
            for (std::size_t t = c + 1; t < w; ++t)
                subtractScaled(yc, y + (f + t) * k, col[t], k);
            divideBy(yc, col[c], k);
            if (c > 0)
                col -= columnStep(nr, c);
        }
    }
}

} // namespace irtherm
