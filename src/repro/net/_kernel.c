/*
 * Compiled event loop of the pristine BG/L torus simulator.
 *
 * A line-by-line port of the handler methods of
 * repro.net.simulator.TorusNetwork (the Python reference): the same
 * struct-of-arrays state, the same arbitration, routing, credit and CPU
 * round-robin decisions, taken in the same order.  Python remains the
 * owner of everything that is a Python object: the kernel calls back
 * into it to pull the next PacketSpec of a node's injection plan and to
 * run the node program's delivery hook.  Nothing else crosses over.
 *
 * Bit-identity with the Python loop rests on three facts (DESIGN.md
 * §13.5):
 *   - event order: a binary heap keyed by (tick, posting seq) that is
 *     drained one whole tick at a time into an immediate FIFO reproduces
 *     the Python calendar buckets + immediate deque exactly;
 *   - arithmetic: every double operation is the one Python performs, in
 *     the same order, built with -ffp-contract=off (no fused
 *     multiply-add) and without -ffast-math;
 *   - time: event times are cycle counts scaled by 2**64, so they are
 *     exact integer-valued doubles in both implementations.
 *
 * Built by repro/net/kernel.py at first use; loaded through ctypes.
 */

#include <setjmp.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define TICK_SCALE 18446744073709551616.0 /* 2**64 */
#define TICK_UNSCALE (1.0 / TICK_SCALE)    /* 2**-64, exact */

enum { EV_LINK_FREE, EV_ARRIVE, EV_TOKEN, EV_CPU_DONE, EV_CPU_WAKE, EV_FIFO_FREE };
enum { SRC_RECV, SRC_FORWARD, SRC_PLAN };
enum { CPU_IDLE, CPU_RECV, CPU_INJECT };
/* plan_state[u]: >= 0 is the pulled spec record; otherwise: */
enum { PLAN_UNPULLED = -1, PLAN_EXHAUSTED = -2 };

/* k_run / k_start_node return codes (mirrored in kernel.py). */
enum {
    K_DONE = 0,         /* event queue drained */
    K_YIELD = 1,        /* event budget spent; call k_run again */
    K_LIMIT_CYCLES = 2, /* config.max_cycles exceeded */
    K_LIMIT_EVENTS = 3, /* config.max_events exceeded */
    K_ERR_CALLBACK = -1,/* a Python callback raised (kernel.py holds it) */
    K_ERR_NOMEM = -2,
    K_ERR_SPEC = -3,    /* a PacketSpec the kernel cannot represent */
    K_ERR_STATE = -4,   /* CPU completion with no pending op */
};

typedef struct {
    int32_t kind, a, b, c;
} ev_t;

typedef struct {
    double t;
    uint64_t seq;
    ev_t ev;
} hent_t;

/* A PacketSpec as written by Python (struct format "<qqddiiiiiii?3x"). */
typedef struct {
    int64_t payload, seq;
    double extra, alpha;
    int32_t dst, wire, mode, group, final_dst, slot, next;
    uint8_t newmsg, pad[3];
} kspec_t;

/* One pool entry; also the delivery record handed to Python
 * (struct format "<qqqdQiiiiiiii"). */
typedef struct {
    int64_t pid, payload, seq;
    double inject; /* ticks */
    uint64_t half;
    int32_t src, dst, wire, mode, final_dst, hops, vc, slot;
} kpkt_t;

typedef struct {
    kpkt_t pkt;
    double inject_f, now_f; /* unscaled */
} kdlv_t;

/* Callbacks into Python.  plan_cb(u) stages u's next plan spec in
 * staging[0] and returns 1, or returns 0 once the plan is exhausted;
 * dlv_cb(u) runs the delivery hook on the packet in *dlv and returns the
 * number of forward specs it staged.  A callback that raises sets
 * cb_failed (its return value is then meaningless). */
typedef int32_t (*plan_cb_t)(int32_t u);
typedef int32_t (*dlv_cb_t)(int32_t u);

/* The shared state block.  kernel.py mirrors this field list in a
 * ctypes.Structure and verifies names and offsets against k_fields()
 * and k_offsets() before using the library. */
#define KFIELDS(X)                                                        \
    /* topology (Python-owned arrays) */                                  \
    X(int32_t *, nbr) X(int32_t *, coord) X(int32_t *, colm)              \
    X(int32_t *, dirtab) X(int32_t *, dir_off) X(int32_t *, port_dir)     \
    X(int32_t *, port_axis)                                               \
    /* network state (Python-owned arrays) */                             \
    X(double *, link_busy) X(double *, busy_cycles)                       \
    X(int64_t *, link_packets) X(int32_t *, tokens)                       \
    X(int32_t *, fifo_free) X(int32_t *, recv_free)                       \
    X(int32_t *, q_buf) X(int32_t *, q_hd) X(int32_t *, q_n)              \
    X(int32_t *, rp_buf) X(int32_t *, rp_hd) X(int32_t *, rp_n)           \
    X(uint64_t *, pmask) X(int32_t *, queued) X(int32_t *, arb)           \
    X(int32_t *, cpu_active) X(int32_t *, cpu_rr) X(int32_t *, fifo_rr)   \
    X(int32_t *, cpu_kind) X(int32_t *, cpu_arg) X(int32_t *, cpu_fifo)   \
    X(int32_t *, plan_state) X(double *, plan_last_start)                 \
    X(double *, pace) X(int32_t *, fwd_head) X(int32_t *, fwd_tail)       \
    X(int32_t *, fwd_len)                                                 \
    /* Python callbacks and their exchange buffers */                     \
    X(kspec_t *, staging) X(kdlv_t *, dlv)                                \
    X(plan_cb_t, plan_cb) X(dlv_cb_t, dlv_cb)                             \
    /* kernel-owned buffers (released by k_release) */                    \
    X(ev_t *, fifo) X(hent_t *, heap) X(kpkt_t *, pool)                   \
    X(int32_t *, pool_free) X(kspec_t *, specs) X(int32_t *, spec_free)   \
    X(void *, jb)                                                         \
    /* doubles */                                                         \
    X(double, now) X(double, max_cycles_t) X(double, beta)                \
    X(double, hop_t) X(double, cpu_fixed) X(double, cpu_incr)             \
    X(double, alpha) X(double, last_final_delivery)                       \
    X(double, last_delivery) X(double, final_latency_sum)                 \
    X(double, final_latency_max)                                          \
    /* 64-bit counters */                                                 \
    X(int64_t, max_events) X(int64_t, n_events) X(int64_t, next_pid)      \
    X(int64_t, seq) X(int64_t, injected_packets)                          \
    X(int64_t, delivered_packets) X(int64_t, final_deliveries)            \
    X(int64_t, forwarded_packets) X(int64_t, injected_wire_bytes)         \
    X(int64_t, total_hops) X(int64_t, peak_forward_backlog)               \
    /* sizes and flags */                                                 \
    X(int32_t, p) X(int32_t, ndim) X(int32_t, ndirs) X(int32_t, nvcs)     \
    X(int32_t, ndyn) X(int32_t, bubble) X(int32_t, nfifos)                \
    X(int32_t, nports) X(int32_t, nvp) X(int32_t, bubble_entry)           \
    X(int32_t, ngroups) X(int32_t, q_shift) X(int32_t, q_mask)            \
    X(int32_t, rp_shift) X(int32_t, rp_mask) X(int32_t, skip_final)       \
    X(int32_t, cb_failed)                                                 \
    X(int32_t, fifo_cap) X(int32_t, fifo_hd) X(int32_t, fifo_n)           \
    X(int32_t, heap_n) X(int32_t, heap_cap) X(int32_t, pool_cap)          \
    X(int32_t, pool_nfree) X(int32_t, spec_cap) X(int32_t, spec_nfree)

#define DECL(t, n) t n;
typedef struct {
    KFIELDS(DECL)
} K;
#undef DECL

#define NAME(t, n) #n ","
static const char k_field_names[] = KFIELDS(NAME);
#undef NAME
#define OFF(t, n) (int64_t)offsetof(K, n),
static const int64_t k_field_offsets[] = {KFIELDS(OFF)};
#undef OFF

const char *k_fields(void) { return k_field_names; }
int64_t k_nfields(void) { return (int64_t)(sizeof k_field_offsets / sizeof k_field_offsets[0]); }
const int64_t *k_offsets(void) { return k_field_offsets; }
int64_t k_sizeof(void) { return (int64_t)sizeof(K); }

/* ------------------------------------------------------------------ */
/* failure: unwind to the entry point                                  */
/* ------------------------------------------------------------------ */

static void kfail(K *k, int code) { longjmp(*(jmp_buf *)k->jb, code); }

static void *kgrow(K *k, void *buf, size_t elem, int32_t *cap, int32_t min_cap) {
    int64_t n = *cap ? (int64_t)*cap * 2 : min_cap;
    if (n > INT32_MAX) kfail(k, K_ERR_NOMEM);
    void *nb = realloc(buf, (size_t)n * elem);
    if (!nb) kfail(k, K_ERR_NOMEM);
    *cap = (int32_t)n;
    return nb;
}

/* ------------------------------------------------------------------ */
/* scheduler: immediate FIFO + (tick, seq) heap                        */
/* ------------------------------------------------------------------ */

static void fifo_push(K *k, int32_t kind, int32_t a, int32_t b, int32_t c) {
    if (k->fifo_n == k->fifo_cap) {
        /* Unroll the ring into a buffer twice the size. */
        int32_t old = k->fifo_cap;
        ev_t *nb = malloc((size_t)(old ? old * 2 : 1024) * sizeof(ev_t));
        if (!nb) kfail(k, K_ERR_NOMEM);
        for (int32_t i = 0; i < k->fifo_n; i++)
            nb[i] = k->fifo[(k->fifo_hd + i) & (old - 1)];
        free(k->fifo);
        k->fifo = nb;
        k->fifo_cap = old ? old * 2 : 1024;
        k->fifo_hd = 0;
    }
    ev_t *e = &k->fifo[(k->fifo_hd + k->fifo_n) & (k->fifo_cap - 1)];
    e->kind = kind;
    e->a = a;
    e->b = b;
    e->c = c;
    k->fifo_n++;
}

static inline int hless(const hent_t *x, const hent_t *y) {
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

static void heap_push(K *k, double t, int32_t kind, int32_t a, int32_t b, int32_t c) {
    if (k->heap_n == k->heap_cap)
        k->heap = kgrow(k, k->heap, sizeof(hent_t), &k->heap_cap, 1024);
    hent_t x = {t, (uint64_t)k->seq++, {kind, a, b, c}};
    hent_t *h = k->heap;
    int32_t i = k->heap_n++;
    while (i > 0) {
        int32_t parent = (i - 1) >> 1;
        if (!hless(&x, &h[parent])) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = x;
}

static hent_t heap_pop(K *k) {
    hent_t *h = k->heap;
    hent_t top = h[0];
    hent_t x = h[--k->heap_n];
    int32_t n = k->heap_n, i = 0;
    for (;;) {
        int32_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && hless(&h[c + 1], &h[c])) c++;
        if (!hless(&h[c], &x)) break;
        h[i] = h[c];
        i = c;
    }
    if (n) h[i] = x;
    return top;
}

/* TorusNetwork._post_ev */
static inline void post(K *k, double t, int32_t kind, int32_t a, int32_t b, int32_t c) {
    if (t <= k->now)
        fifo_push(k, kind, a, b, c);
    else
        heap_push(k, t, kind, a, b, c);
}

/* The interned TOKEN event of (node u, input port). */
static inline void push_token(K *k, int32_t u, int32_t port) {
    int32_t ind = k->port_dir[port];
    fifo_push(k, EV_TOKEN, u * k->nvp + port, k->nbr[u * k->ndirs + ind], ind ^ 1);
}

/* ------------------------------------------------------------------ */
/* routing tables                                                      */
/* ------------------------------------------------------------------ */

/* dirtab[axis][(halfbits >> axis) & 1][colm[axis][cur] + coord[axis][dst]] */
static inline int32_t mindir(const K *k, int32_t axis, uint64_t hb, int32_t cur, int32_t dst) {
    return k->dirtab[k->dir_off[2 * axis + (int32_t)((hb >> axis) & 1)] +
                     k->colm[axis * k->p + cur] + k->coord[axis * k->p + dst]];
}

/* TorusNetwork._dor_dir */
static int32_t dor_dir(const K *k, int32_t cur, int32_t dst, uint64_t hb) {
    for (int32_t axis = 0; axis < k->ndim; axis++) {
        int32_t d = mindir(k, axis, hb, cur, dst);
        if (d >= 0) return d;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* packet pool and spec records                                        */
/* ------------------------------------------------------------------ */

static int32_t pool_alloc(K *k) {
    if (!k->pool_nfree) {
        /* PacketPool.grow: double, hand out the old capacity first. */
        int32_t old = k->pool_cap;
        k->pool = kgrow(k, k->pool, sizeof(kpkt_t), &k->pool_cap, 64);
        int32_t *nf = realloc(k->pool_free, (size_t)k->pool_cap * sizeof(int32_t));
        if (!nf) kfail(k, K_ERR_NOMEM);
        k->pool_free = nf;
        for (int32_t h = k->pool_cap - 1; h >= old; h--) nf[k->pool_nfree++] = h;
    }
    return k->pool_free[--k->pool_nfree];
}

static inline void pool_release(K *k, int32_t h) { k->pool_free[k->pool_nfree++] = h; }

/* Copy staged spec i into a fresh record (validating what the kernel
 * indexes with). */
static int32_t spec_take(K *k, int32_t i) {
    const kspec_t *s = &k->staging[i];
    if (s->dst < 0 || s->dst >= k->p || s->wire < 0) kfail(k, K_ERR_SPEC);
    if (!k->spec_nfree) {
        int32_t old = k->spec_cap;
        k->specs = kgrow(k, k->specs, sizeof(kspec_t), &k->spec_cap, 256);
        int32_t *nf = realloc(k->spec_free, (size_t)k->spec_cap * sizeof(int32_t));
        if (!nf) kfail(k, K_ERR_NOMEM);
        k->spec_free = nf;
        for (int32_t r = k->spec_cap - 1; r >= old; r--) nf[k->spec_nfree++] = r;
    }
    int32_t r = k->spec_free[--k->spec_nfree];
    k->specs[r] = *s;
    k->specs[r].next = -1;
    return r;
}

static inline void spec_release(K *k, int32_t r) { k->spec_free[k->spec_nfree++] = r; }

/* ------------------------------------------------------------------ */
/* sending machinery                                                   */
/* ------------------------------------------------------------------ */

static void cpu_start_next(K *k, int32_t u);
static void advance_queue_head(K *k, int32_t u, int32_t port);
static void advance_fifo_head(K *k, int32_t u, int32_t f);

/* TorusNetwork._launch */
static void launch(K *k, int32_t u, int32_t d, int32_t v, int32_t h, int32_t vc) {
    kpkt_t *P = &k->pool[h];
    k->tokens[(v * k->ndirs + (d ^ 1)) * k->nvcs + vc] -= 1;
    P->vc = vc;
    P->hops += 1;
    k->total_hops += 1;
    double s = (double)P->wire * k->beta;
    double now = k->now;
    double done = now + s * TICK_SCALE;
    int32_t li = u * k->ndirs + d;
    k->link_busy[li] = done;
    k->busy_cycles[li] += s;
    k->link_packets[li] += 1;
    post(k, done, EV_LINK_FREE, u, d, 0);
    double arrive = (P->dst == v ? done : now) + k->hop_t;
    post(k, arrive, EV_ARRIVE, v, (d ^ 1) * k->nvcs + vc, h);
}

/* TorusNetwork._arbitrate_link */
static int arbitrate_link(K *k, int32_t u, int32_t d) {
    int32_t v = k->nbr[u * k->ndirs + d];
    if (v < 0) return 0;
    int32_t li = u * k->ndirs + d;
    uint64_t m = k->pmask[u];
    if (!m || k->link_busy[li] > k->now) return 0;
    int32_t nports = k->nports, nvp = k->nvp;
    int32_t ubase = u * nports;
    int32_t axis = d >> 1;
    int32_t base = (v * k->ndirs + (d ^ 1)) * k->nvcs;
    int32_t bubble = k->bubble;
    int32_t bubble_tok = k->tokens[base + bubble];
    int32_t start = k->arb[li];
    uint64_t full = (1ULL << nports) - 1;
    uint64_t mm = ((m >> start) | (m << (nports - start))) & full;
    int32_t b_port = -1, b_h = -1, b_vc = -1;
    while (mm) {
        int32_t port = start + __builtin_ctzll(mm);
        mm &= mm - 1;
        if (port >= nports) port -= nports;
        int32_t qi = ubase + port;
        int32_t h = k->q_buf[(qi << k->q_shift) | k->q_hd[qi]];
        const kpkt_t *P = &k->pool[h];
        int32_t dst = P->dst, in_axis;
        if (port < nvp) {
            if (dst == u) continue; /* waiting for reception space */
            in_axis = k->port_axis[port];
        } else {
            in_axis = -1;
        }
        uint64_t hb = P->half;
        if (d != mindir(k, axis, hb, u, dst)) continue;
        if (P->mode == 0) { /* ADAPTIVE: most-credit dynamic VC */
            int32_t best = -1, best_free = 0;
            for (int32_t vc = 0; vc < k->ndyn; vc++) {
                int32_t f = k->tokens[base + vc];
                if (f > best_free) {
                    best = vc;
                    best_free = f;
                }
            }
            if (best >= 0) {
                b_port = port;
                b_h = h;
                b_vc = best;
                break;
            }
        }
        if (b_port < 0) {
            /* Bubble/escape candidate: dor_dir == d iff every earlier
             * axis is already aligned. */
            int aligned = 1;
            for (int32_t ax = 0; ax < axis; ax++)
                if (mindir(k, ax, hb, u, dst) >= 0) {
                    aligned = 0;
                    break;
                }
            if (aligned) {
                int32_t need = (P->vc != bubble || in_axis != axis) ? k->bubble_entry : 1;
                if (bubble_tok >= need) {
                    b_port = port;
                    b_h = h;
                    b_vc = bubble;
                }
            }
        }
    }
    if (b_port < 0) return 0;
    int32_t port = b_port, qi = ubase + port;
    k->q_hd[qi] = (k->q_hd[qi] + 1) & k->q_mask;
    int32_t n = k->q_n[qi] - 1;
    k->q_n[qi] = n;
    if (!n) k->pmask[u] &= ~(1ULL << port);
    k->queued[u] -= 1;
    k->arb[li] = port + 1 < nports ? port + 1 : 0;
    if (port < nvp) {
        push_token(k, u, port);
        launch(k, u, d, v, b_h, b_vc);
        advance_queue_head(k, u, port);
    } else {
        int32_t f = port - nvp;
        fifo_push(k, EV_FIFO_FREE, u * k->nfifos + f, u, 0);
        launch(k, u, d, v, b_h, b_vc);
        advance_fifo_head(k, u, f);
    }
    return 1;
}

/* TorusNetwork._try_send_head */
static int try_send_head(K *k, int32_t u, int32_t h, int32_t in_axis) {
    const int32_t *nbr_u = &k->nbr[u * k->ndirs];
    int32_t lbase = u * k->ndirs;
    double now = k->now;
    const kpkt_t *P = &k->pool[h];
    int32_t dst = P->dst;
    uint64_t hb = P->half;
    int32_t d, v, base, need;
    if (P->mode == 0) {
        int32_t best_d = -1, best_vc = -1, best_free = 0, first_d = -1;
        for (int32_t axis = 0; axis < k->ndim; axis++) {
            d = mindir(k, axis, hb, u, dst);
            if (d < 0) continue;
            if (first_d < 0) first_d = d;
            v = nbr_u[d];
            if (v < 0 || k->link_busy[lbase + d] > now) continue;
            base = (v * k->ndirs + (d ^ 1)) * k->nvcs;
            for (int32_t vc = 0; vc < k->ndyn; vc++) {
                int32_t f = k->tokens[base + vc];
                if (f > best_free) {
                    best_d = d;
                    best_vc = vc;
                    best_free = f;
                }
            }
        }
        if (best_d >= 0) {
            launch(k, u, best_d, nbr_u[best_d], h, best_vc);
            return 1;
        }
        d = first_d;
        if (d < 0) return 0;
    } else {
        d = dor_dir(k, u, dst, hb);
        if (d < 0) return 0;
    }
    v = nbr_u[d];
    if (v < 0 || k->link_busy[lbase + d] > now) return 0;
    base = (v * k->ndirs + (d ^ 1)) * k->nvcs;
    need = (P->vc != k->bubble || in_axis != (d >> 1)) ? k->bubble_entry : 1;
    if (k->tokens[base + k->bubble] >= need) {
        launch(k, u, d, v, h, k->bubble);
        return 1;
    }
    return 0;
}

/* TorusNetwork._rp_append */
static inline void rp_append(K *k, int32_t u, int32_t h) {
    int32_t n = k->rp_n[u];
    k->rp_buf[(u << k->rp_shift) | ((k->rp_hd[u] + n) & k->rp_mask)] = h;
    k->rp_n[u] = n + 1;
}

/* TorusNetwork._advance_queue_head */
static void advance_queue_head(K *k, int32_t u, int32_t port) {
    int32_t qi = u * k->nports + port;
    int32_t n = k->q_n[qi];
    if (!n) return;
    int32_t in_axis = k->port_axis[port];
    while (n) {
        int32_t h = k->q_buf[(qi << k->q_shift) | k->q_hd[qi]];
        if (k->pool[h].dst == u) {
            if (k->recv_free[u] <= 0) break;
            k->recv_free[u] -= 1;
            k->q_hd[qi] = (k->q_hd[qi] + 1) & k->q_mask;
            n -= 1;
            k->q_n[qi] = n;
            k->queued[u] -= 1;
            rp_append(k, u, h);
            push_token(k, u, port);
            if (!k->cpu_active[u]) cpu_start_next(k, u);
        } else {
            if (!try_send_head(k, u, h, in_axis)) break;
            k->q_hd[qi] = (k->q_hd[qi] + 1) & k->q_mask;
            n -= 1;
            k->q_n[qi] = n;
            k->queued[u] -= 1;
            push_token(k, u, port);
        }
    }
    if (!n) k->pmask[u] &= ~(1ULL << port);
}

/* TorusNetwork._advance_fifo_head */
static void advance_fifo_head(K *k, int32_t u, int32_t f) {
    int32_t port = k->nvp + f;
    int32_t qi = u * k->nports + port;
    int32_t n = k->q_n[qi];
    if (!n) return;
    while (n) {
        int32_t h = k->q_buf[(qi << k->q_shift) | k->q_hd[qi]];
        if (!try_send_head(k, u, h, -1)) break;
        k->q_hd[qi] = (k->q_hd[qi] + 1) & k->q_mask;
        n -= 1;
        k->q_n[qi] = n;
        k->queued[u] -= 1;
        fifo_push(k, EV_FIFO_FREE, u * k->nfifos + f, u, 0);
    }
    if (!n) k->pmask[u] &= ~(1ULL << port);
}

/* TorusNetwork._deliver_local_heads */
static void deliver_local_heads(K *k, int32_t u) {
    uint64_t m = k->pmask[u] & ((1ULL << k->nvp) - 1);
    while (m) {
        if (k->recv_free[u] <= 0) return;
        int32_t port = __builtin_ctzll(m);
        m &= m - 1;
        advance_queue_head(k, u, port);
    }
}

/* TorusNetwork._on_arrive */
static void on_arrive(K *k, int32_t v, int32_t port, int32_t h) {
    int32_t qi = v * k->nports + port;
    int32_t n = k->q_n[qi];
    if (!n && k->pool[h].dst == v && k->recv_free[v] > 0) {
        k->recv_free[v] -= 1;
        rp_append(k, v, h);
        push_token(k, v, port);
        if (!k->cpu_active[v]) cpu_start_next(k, v);
        return;
    }
    k->q_buf[(qi << k->q_shift) | ((k->q_hd[qi] + n) & k->q_mask)] = h;
    k->q_n[qi] = n + 1;
    k->queued[v] += 1;
    if (!n) {
        k->pmask[v] |= 1ULL << port;
        advance_queue_head(k, v, port);
    }
}

/* ------------------------------------------------------------------ */
/* CPU model                                                           */
/* ------------------------------------------------------------------ */

/* TorusNetwork._plan_peek: the pulled spec record of u, or -1. */
static int32_t plan_peek(K *k, int32_t u) {
    int32_t r = k->plan_state[u];
    if (r >= 0) return r;
    if (r == PLAN_EXHAUSTED) return -1;
    int32_t ready = k->plan_cb(u);
    if (k->cb_failed) kfail(k, K_ERR_CALLBACK);
    if (!ready) {
        k->plan_state[u] = PLAN_EXHAUSTED;
        return -1;
    }
    r = spec_take(k, 0);
    k->plan_state[u] = r;
    return r;
}

/* TorusNetwork._pick_fifo */
static int32_t pick_fifo(K *k, int32_t u, int32_t group) {
    int32_t nf = k->nfifos, ng = k->ngroups;
    int32_t want = group % ng;
    if (want < 0) want += ng; /* Python modulo */
    int32_t base = k->fifo_rr[u], fbase = u * nf;
    for (int32_t i = 0; i < nf; i++) {
        int32_t f = base + i;
        if (f >= nf) f -= nf;
        if (f % ng == want && k->fifo_free[fbase + f] > 0) {
            k->fifo_rr[u] = f + 1 < nf ? f + 1 : 0;
            return f;
        }
    }
    return -1;
}

/* TorusNetwork._begin_injection */
static void begin_injection(K *k, int32_t u, int32_t r, int32_t fifo, int32_t src) {
    const kspec_t *s = &k->specs[r];
    k->fifo_free[u * k->nfifos + fifo] -= 1;
    double cost = (k->cpu_fixed + (double)s->wire * k->cpu_incr) + s->extra;
    if (s->newmsg) cost += s->alpha >= 0 ? s->alpha : k->alpha;
    k->cpu_kind[u] = CPU_INJECT;
    k->cpu_arg[u] = r;
    k->cpu_fifo[u] = fifo;
    k->cpu_active[u] = 1;
    k->cpu_rr[u] = src + 1;
    post(k, k->now + cost * TICK_SCALE, EV_CPU_DONE, u, 0, 0);
}

/* TorusNetwork._cpu_start_next */
static void cpu_start_next(K *k, int32_t u) {
    double now = k->now;
    int32_t rr = k->cpu_rr[u];
    double wake_at = -1.0;
    for (int32_t i = 0; i < 3; i++) {
        int32_t src = rr + i;
        if (src >= 3) src -= 3;
        if (src == SRC_RECV) {
            int32_t n = k->rp_n[u];
            if (n) {
                int32_t hd = k->rp_hd[u];
                int32_t h = k->rp_buf[(u << k->rp_shift) | hd];
                k->rp_hd[u] = (hd + 1) & k->rp_mask;
                k->rp_n[u] = n - 1;
                k->cpu_kind[u] = CPU_RECV;
                k->cpu_arg[u] = h;
                k->cpu_active[u] = 1;
                k->cpu_rr[u] = src + 1;
                double c = k->cpu_fixed + (double)k->pool[h].wire * k->cpu_incr;
                post(k, now + c * TICK_SCALE, EV_CPU_DONE, u, 0, 0);
                return;
            }
        } else if (src == SRC_FORWARD) {
            int32_t r = k->fwd_head[u];
            if (r >= 0) {
                int32_t f = pick_fifo(k, u, k->specs[r].group);
                if (f >= 0) {
                    k->fwd_head[u] = k->specs[r].next;
                    if (k->fwd_head[u] < 0) k->fwd_tail[u] = -1;
                    k->fwd_len[u] -= 1;
                    begin_injection(k, u, r, f, src);
                    return;
                }
            }
        } else {
            int32_t r = plan_peek(k, u);
            if (r >= 0) {
                double eligible = k->plan_last_start[u] + k->pace[u];
                if (now < eligible) {
                    if (wake_at < 0 || eligible < wake_at) wake_at = eligible;
                    continue;
                }
                int32_t f = pick_fifo(k, u, k->specs[r].group);
                if (f >= 0) {
                    k->plan_state[u] = PLAN_UNPULLED;
                    k->plan_last_start[u] = now;
                    begin_injection(k, u, r, f, src);
                    return;
                }
            }
        }
    }
    k->cpu_active[u] = 0;
    if (wake_at > now) post(k, wake_at, EV_CPU_WAKE, u, 0, 0);
}

/* TorusNetwork._finish_delivery */
static void finish_delivery(K *k, int32_t u, int32_t h) {
    double now = k->now;
    double now_f = now * TICK_UNSCALE;
    kpkt_t *P = &k->pool[h];
    k->delivered_packets += 1;
    k->last_delivery = now_f;
    double inject_t = P->inject;
    int final = P->final_dst == u;
    if (final) {
        k->final_deliveries += 1;
        k->last_final_delivery = now_f;
        double lat = (now - inject_t) * TICK_UNSCALE;
        k->final_latency_sum += lat;
        if (lat > k->final_latency_max) k->final_latency_max = lat;
    } else {
        k->forwarded_packets += 1;
    }
    if (final && k->skip_final) {
        /* BaseProgram.on_delivery of a final packet: returns (). */
        pool_release(k, h);
        return;
    }
    k->dlv->pkt = *P;
    k->dlv->inject_f = inject_t * TICK_UNSCALE;
    k->dlv->now_f = now_f;
    int32_t n = k->dlv_cb(u);
    if (k->cb_failed) kfail(k, K_ERR_CALLBACK);
    pool_release(k, h);
    for (int32_t i = 0; i < n; i++) {
        int32_t r = spec_take(k, i);
        if (k->fwd_tail[u] >= 0)
            k->specs[k->fwd_tail[u]].next = r;
        else
            k->fwd_head[u] = r;
        k->fwd_tail[u] = r;
        k->fwd_len[u] += 1;
    }
    if (k->fwd_len[u] > k->peak_forward_backlog) k->peak_forward_backlog = k->fwd_len[u];
}

/* TorusNetwork._cpu_complete */
static void cpu_complete(K *k, int32_t u) {
    int32_t kind = k->cpu_kind[u];
    k->cpu_kind[u] = CPU_IDLE;
    if (kind == CPU_RECV) {
        int32_t h = k->cpu_arg[u];
        k->recv_free[u] += 1;
        finish_delivery(k, u, h);
        deliver_local_heads(k, u);
    } else if (kind == CPU_INJECT) {
        int32_t r = k->cpu_arg[u], fifo = k->cpu_fifo[u];
        const kspec_t *s = &k->specs[r];
        int32_t h = pool_alloc(k);
        kpkt_t *P = &k->pool[h];
        int64_t pid = k->next_pid++;
        P->pid = pid;
        P->src = u;
        P->dst = s->dst;
        P->wire = s->wire;
        P->mode = s->mode;
        P->final_dst = s->final_dst >= 0 ? s->final_dst : s->dst;
        P->payload = s->payload;
        P->seq = s->seq;
        P->slot = s->slot;
        P->inject = k->now;
        P->hops = 0;
        P->vc = -1;
        P->half = ((uint64_t)pid * 0x9E3779B1ULL) >> 7;
        spec_release(k, r);
        k->injected_packets += 1;
        k->injected_wire_bytes += P->wire;
        if (P->dst == u) {
            /* Local (self) message: bypasses the network entirely. */
            k->fifo_free[u * k->nfifos + fifo] += 1;
            finish_delivery(k, u, h);
        } else {
            int32_t port = k->nvp + fifo;
            int32_t qi = u * k->nports + port;
            int32_t n = k->q_n[qi];
            k->q_buf[(qi << k->q_shift) | ((k->q_hd[qi] + n) & k->q_mask)] = h;
            k->q_n[qi] = n + 1;
            k->queued[u] += 1;
            if (!n) {
                k->pmask[u] |= 1ULL << port;
                advance_fifo_head(k, u, fifo);
            }
        }
    } else {
        kfail(k, K_ERR_STATE);
    }
    cpu_start_next(k, u);
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

/* Allocate the kernel-owned buffers: a packet pool of `pool_cap`
 * handles (handle 0 handed out first, like PacketPool) and empty
 * scheduler queues. */
int k_init(K *k, int32_t pool_cap) {
    jmp_buf jb;
    k->jb = &jb;
    int rc = setjmp(jb);
    if (rc == 0) {
        k->fifo = kgrow(k, NULL, sizeof(ev_t), &k->fifo_cap, 1024);
        k->heap = kgrow(k, NULL, sizeof(hent_t), &k->heap_cap, 1024);
        k->pool = kgrow(k, NULL, sizeof(kpkt_t), &k->pool_cap, pool_cap);
        k->pool_free = malloc((size_t)k->pool_cap * sizeof(int32_t));
        if (!k->pool_free) kfail(k, K_ERR_NOMEM);
        for (int32_t h = k->pool_cap - 1; h >= 0; h--) k->pool_free[k->pool_nfree++] = h;
    }
    k->jb = NULL;
    return rc;
}

/* Kick node u's CPU (TorusNetwork._cpu_maybe_start), as run() does for
 * every node before the loop starts. */
int k_start_node(K *k, int32_t u) {
    jmp_buf jb;
    k->jb = &jb;
    int rc = setjmp(jb);
    if (rc == 0 && !k->cpu_active[u]) cpu_start_next(k, u);
    k->jb = NULL;
    return rc;
}

/* The main loop (TorusNetwork._run_dispatch) for at most `budget`
 * events.  Returns K_YIELD when the budget is spent, so that Python can
 * run signal handlers, heartbeats and watchdogs before resuming. */
static int run_loop(K *k, int64_t budget) {
    double now = k->now;
    for (;;) {
        ev_t e;
        if (k->fifo_n) {
            e = k->fifo[k->fifo_hd];
        } else if (k->heap_n) {
            /* Advance time: move the whole tick, in posting order, onto
             * the immediate FIFO (the Python calendar bucket). */
            hent_t top = heap_pop(k);
            k->now = now = top.t;
            fifo_push(k, top.ev.kind, top.ev.a, top.ev.b, top.ev.c);
            while (k->heap_n && k->heap[0].t == now) {
                top = heap_pop(k);
                fifo_push(k, top.ev.kind, top.ev.a, top.ev.b, top.ev.c);
            }
            e = k->fifo[k->fifo_hd];
        } else {
            return K_DONE;
        }
        k->fifo_hd = (k->fifo_hd + 1) & (k->fifo_cap - 1);
        k->fifo_n--;
        k->n_events++;
        switch (e.kind) {
        case EV_ARRIVE:
            on_arrive(k, e.a, e.b, e.c);
            break;
        case EV_TOKEN:
            k->tokens[e.a] += 1;
            if (e.b >= 0 && k->pmask[e.b]) arbitrate_link(k, e.b, e.c);
            break;
        case EV_LINK_FREE:
            if (k->pmask[e.a]) arbitrate_link(k, e.a, e.b);
            break;
        case EV_CPU_DONE:
            cpu_complete(k, e.a);
            break;
        case EV_FIFO_FREE:
            k->fifo_free[e.a] += 1;
            if (!k->cpu_active[e.b]) cpu_start_next(k, e.b);
            break;
        default: /* EV_CPU_WAKE */
            if (!k->cpu_active[e.a]) cpu_start_next(k, e.a);
        }
        if (now > k->max_cycles_t) return K_LIMIT_CYCLES;
        if (k->n_events > k->max_events) return K_LIMIT_EVENTS;
        if (--budget <= 0) return K_YIELD;
    }
}

int k_run(K *k, int64_t budget) {
    jmp_buf jb;
    k->jb = &jb;
    int rc = setjmp(jb);
    if (rc == 0) rc = run_loop(k, budget);
    k->jb = NULL;
    return rc;
}

/* Copy u's pending forward specs, in order, to out (diagnostics). */
int32_t k_fwd_specs(K *k, int32_t u, kspec_t *out) {
    int32_t n = 0;
    for (int32_t r = k->fwd_head[u]; r >= 0; r = k->specs[r].next) out[n++] = k->specs[r];
    return n;
}

/* Free every kernel-owned buffer. */
void k_release(K *k) {
    free(k->fifo);
    free(k->heap);
    free(k->pool);
    free(k->pool_free);
    free(k->specs);
    free(k->spec_free);
    k->fifo = NULL;
    k->heap = NULL;
    k->pool = NULL;
    k->pool_free = NULL;
    k->specs = NULL;
    k->spec_free = NULL;
    k->fifo_cap = k->fifo_n = k->fifo_hd = 0;
    k->heap_cap = k->heap_n = 0;
    k->pool_cap = k->pool_nfree = 0;
    k->spec_cap = k->spec_nfree = 0;
}
