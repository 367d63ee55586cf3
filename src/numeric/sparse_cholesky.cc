#include "numeric/sparse_cholesky.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

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
               std::vector<Idx> &adj)
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
    std::vector<std::size_t> ti(ci.size());
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
                         const std::vector<Idx> &adj)
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
    std::vector<Idx> iw(iwSize);
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
forEachRowSubtree(const std::vector<Idx> &ptr, const std::vector<Idx> &adj,
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

} // namespace

SparseCholesky::SparseCholesky(const CsrMatrix &a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        fatal("SparseCholesky: matrix is not square");
    if (n >= std::numeric_limits<std::uint32_t>::max())
        fatal("SparseCholesky: ", n, " rows exceed the index range");

    // The graph and the ordering's scratch are freed on return, before
    // any numeric work.
    std::vector<Idx> ptr, adj;
    symmetricGraph(a, ptr, adj);
    perm = approximateMinimumDegree(n, ptr, adj);
    iperm.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        iperm[perm[k]] = k;

    // Elimination tree of P A Pᵀ (Liu), path-compressed through
    // ancestor links.
    parent.assign(n, kNone);
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

    // Column counts, one row subtree at a time.
    std::vector<std::size_t> count(n, 1);
    forEachRowSubtree(ptr, adj, perm, iperm, parent,
                      [&count](std::size_t j, std::size_t) { ++count[j]; });
    colPtr.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j)
        colPtr[j + 1] = colPtr[j] + count[j];
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

    // L's structure, once per pattern: row k's subtree appends k to
    // each column it reaches, so rows come out sorted. It comes from
    // the same symmetrized graph as the counts, so it holds every
    // entry the numeric phase reads.
    if (rowIdx.size() != factorNonZeros()) {
        std::vector<Idx> ptr, adj;
        symmetricGraph(a, ptr, adj);
        rowIdx.assign(factorNonZeros(), 0);
        std::vector<std::size_t> cursor(n);
        for (std::size_t j = 0; j < n; ++j) {
            rowIdx[colPtr[j]] = static_cast<std::uint32_t>(j);
            cursor[j] = colPtr[j] + 1;
        }
        forEachRowSubtree(ptr, adj, perm, iperm, parent,
                          [&](std::size_t j, std::size_t k) {
                              if (cursor[j] == colPtr[j + 1])
                                  fatal("SparseCholesky::factor: matrix "
                                        "pattern changed");
                              rowIdx[cursor[j]++] =
                                  static_cast<std::uint32_t>(k);
                          });
    }
    values.assign(factorNonZeros(), 0.0);

    // Left-looking: column j gathers A's column j, then subtracts
    // L(j:n, k) L(j, k) for every earlier column k with L(j, k) != 0.
    // Each column k waits in the list of the row it updates next
    // (nextRow[k] indexes that entry), so each update is found in
    // O(1) and the lists together hold every column at most once.
    std::vector<double> x(n, 0.0);
    std::vector<std::size_t> listHead(n, kNone), listNext(n, kNone),
        nextRow(n, 0);
    const std::uint32_t *li = rowIdx.data();
    double *lx = values.data();
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t r = perm[j];
        for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
            const std::size_t i = iperm[ci[q]];
            if (i >= j)
                x[i] = av[q];
        }
        std::size_t k = listHead[j];
        while (k != kNone) {
            const std::size_t after = listNext[k];
            const std::size_t p = nextRow[k];
            const std::size_t end = colPtr[k + 1];
            const double ljk = lx[p];
            for (std::size_t q = p; q < end; ++q)
                x[li[q]] -= lx[q] * ljk;
            if (p + 1 < end) {
                nextRow[k] = p + 1;
                const std::size_t row = li[p + 1];
                listNext[k] = listHead[row];
                listHead[row] = k;
            }
            k = after;
        }

        const double d = x[j];
        x[j] = 0.0;
        if (!(d > 0.0) || !std::isfinite(d)) {
            why = "pivot " + std::to_string(j) + " (row " +
                  std::to_string(perm[j]) + ") is " + std::to_string(d);
            values.clear();
            values.shrink_to_fit();
            return false;
        }
        const double ljj = std::sqrt(d);
        const std::size_t begin = colPtr[j];
        const std::size_t end = colPtr[j + 1];
        lx[begin] = ljj;
        for (std::size_t q = begin + 1; q < end; ++q) {
            lx[q] = x[li[q]] / ljj;
            x[li[q]] = 0.0;
        }
        if (begin + 1 < end) {
            nextRow[j] = begin + 1;
            const std::size_t row = li[begin + 1];
            listNext[j] = listHead[row];
            listHead[row] = j;
        }
    }
    work.assign(n, 0.0);
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
    const std::uint32_t *li = rowIdx.data();
    const double *lx = values.data();
    const std::size_t *cp = colPtr.data();
    double *y = work.data();
    for (std::size_t k = 0; k < n; ++k)
        y[k] = b[perm[k]];
    // L y = P b
    for (std::size_t j = 0; j < n; ++j) {
        const double yj = y[j] / lx[cp[j]];
        y[j] = yj;
        for (std::size_t q = cp[j] + 1; q < cp[j + 1]; ++q)
            y[li[q]] -= lx[q] * yj;
    }
    // Lᵀ z = y
    for (std::size_t j = n; j-- > 0;) {
        double s = y[j];
        for (std::size_t q = cp[j] + 1; q < cp[j + 1]; ++q)
            s -= lx[q] * y[li[q]];
        y[j] = s / lx[cp[j]];
    }
    x.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        x[perm[k]] = y[k];
}

} // namespace irtherm
