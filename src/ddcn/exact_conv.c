/* ddcn's compiled kernels: the exact-order contraction of the fixed-weight
   convolutions, then the forwards and VJPs of the 3D involution and of the
   deformable dynamic convolution (further below).

   Every entry point takes aligned, C-contiguous arrays (the caller copies
   any other) and one int64 geometry ``geo``: N, C, C_out (the contraction)
   or G (the involution and the DDC), taps, the three spatial sizes S0, S1,
   S2, then per tap and axis (displacement d, first output, end output):
   outputs [first, end) read input o + d. Spatial ranks below three lead with
   axes of size 1; the DDC's plane is (1, H, W). Every offset into an array
   follows from these sizes. One call runs one shard of the batch, and
   returns 0, or -1 if a buffer cannot be allocated.

   The contraction:

   out[n, co, pos] = (...((+0 + w[co, 0] * v_0) + w[co, 1] * v_1) ...) + bias[co]

   for k = (input channel, row-major tap) ascending, where v_k is the input
   the tap reads at ``pos``, or +0 where that read leaves the input. Every
   term is one rounded multiply and one rounded add: built without
   -ffast-math and with -ffp-contract=off, nothing is fused or reassociated,
   so each output element has the bits of the scalar loop, whatever the
   vector width.

   A batch element's S0 * S1 * S2 positions are walked flat, in blocks of
   TILE that run across the planes of axis 0; one byte mask per (tap,
   position), built once per call, says which reads stay in the input. Each
   block's input is packed for every k into ``panel``, then the output
   channels are swept four at a time, with a 4 x TILE accumulator tile held
   in registers across all k (Goto and van de Geijn, "Anatomy of
   High-Performance Matrix Multiplication", ACM TOMS 34(3), 2008). ``x`` is
   (N, C, S0, S1, S2), ``w`` (C_out, C * taps), ``out`` (N, C_out, S0, S1,
   S2) and ``bias`` (C_out,) or NULL. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define VBYTES 64
#define LANES 4 /* vectors per tile row: 64 float32 or 32 float64 positions */

enum { G_N, G_C, G_COUT, G_GROUPS = G_COUT, G_TAPS, G_SIZE, G_TAP = G_SIZE + 3 };

/* mask[t * positions + q]: whether tap t reads inside the input at flat position q
   of a batch element, along all three axes. */
static unsigned char *position_masks(const int64_t *geo)
{
    const int64_t s0 = geo[G_SIZE], s1 = geo[G_SIZE + 1], s2 = geo[G_SIZE + 2];
    unsigned char *mask = malloc(geo[G_TAPS] * s0 * s1 * s2 + 1), *m = mask;
    if (!mask)
        return 0;
    for (int64_t t = 0; t < geo[G_TAPS]; t++) {
        const int64_t *tap = geo + G_TAP + t * 9;
        for (int64_t i0 = 0; i0 < s0; i0++)
            for (int64_t i1 = 0; i1 < s1; i1++)
                for (int64_t i2 = 0; i2 < s2; i2++)
                    *m++ = i0 >= tap[1] && i0 < tap[2] && i1 >= tap[4] && i1 < tap[5]
                           && i2 >= tap[7] && i2 < tap[8];
    }
    return mask;
}

#define DEFINE_CONTRACT(T, SUFFIX)                                                          \
typedef T vec_##SUFFIX __attribute__((vector_size(VBYTES)));                                \
enum { TILE_##SUFFIX = LANES * VBYTES / sizeof(T) };                                        \
                                                                                            \
/* Output channels [0, rows) of one block: from +0, add w[c, k] * panel row k for      \
   ascending k, then the bias. Inlined with constant ``rows``, the tile stays in        \
   registers. */                                                                        \
static inline __attribute__((always_inline)) void                                           \
tile_##SUFFIX(int rows, const T *w, int64_t kk, const vec_##SUFFIX *panel, const T *bias,   \
              T *out, int64_t ldo, int64_t np)                                              \
{                                                                                           \
    vec_##SUFFIX acc[4][LANES] = {{{0}}};                                                   \
    for (int64_t k = 0; k < kk; k++)                                                        \
        for (int c = 0; c < rows; c++)                                                      \
            for (int v = 0; v < LANES; v++)                                                 \
                acc[c][v] = acc[c][v] + w[c * kk + k] * panel[k * LANES + v];               \
    for (int c = 0; c < rows; c++) {                                                        \
        if (bias)                                                                           \
            for (int v = 0; v < LANES; v++)                                                 \
                acc[c][v] = acc[c][v] + bias[c];                                            \
        memcpy(out + c * ldo, acc[c], np * sizeof(T));                                      \
    }                                                                                       \
}                                                                                           \
                                                                                            \
/* Panel row ci * taps + t for each of the ``channels`` channels ci of xn: channel ci       \
   through tap t at flat positions [q0, q0 + np); +0 where the tap leaves the input and     \
   past np. Tap t reads position q + (d0 * S1 + d1) * S2 + d2. The contraction packs all    \
   C input channels at once, the involution one channel at a time. */                       \
static void pack_##SUFFIX(const int64_t *geo, const unsigned char *mask, const T *xn,       \
                          int64_t channels, int64_t q0, int64_t np, T *panel)               \
{                                                                                           \
    const int64_t s1 = geo[G_SIZE + 1], s2 = geo[G_SIZE + 2], taps = geo[G_TAPS];           \
    const int64_t positions = geo[G_SIZE] * s1 * s2;                                        \
    for (int64_t t = 0; t < taps; t++) {                                                    \
        const int64_t *tap = geo + G_TAP + t * 9;                                           \
        const int64_t shift = q0 + (tap[0] * s1 + tap[3]) * s2 + tap[6];                    \
        const unsigned char *ok = mask + t * positions + q0;                                \
        for (int64_t ci = 0; ci < channels; ci++) {                                         \
            T *row = panel + (ci * taps + t) * TILE_##SUFFIX;                               \
            const T *xc = xn + ci * positions;                                              \
            for (int64_t j = 0; j < np; j++)                                                \
                row[j] = ok[j] ? xc[shift + j] : 0;                                         \
            for (int64_t j = np; j < TILE_##SUFFIX; j++)                                    \
                row[j] = 0;                                                                 \
        }                                                                                   \
    }                                                                                       \
}                                                                                           \
                                                                                            \
int ddcn_contract_##SUFFIX(const T *x, const T *w, const T *bias, T *out,                   \
                          const int64_t *geo)                                               \
{                                                                                           \
    const int64_t c_out = geo[G_COUT], kk = geo[G_C] * geo[G_TAPS];                         \
    const int64_t positions = geo[G_SIZE] * geo[G_SIZE + 1] * geo[G_SIZE + 2];              \
    if (geo[G_N] == 0 || positions == 0)                                                    \
        return 0;                                                                           \
    T *panel = aligned_alloc(VBYTES, (kk + 1) * TILE_##SUFFIX * sizeof(T));                 \
    unsigned char *mask = position_masks(geo);                                              \
    if (!panel || !mask) {                                                                  \
        free(panel);                                                                        \
        free(mask);                                                                         \
        return -1;                                                                          \
    }                                                                                       \
    const vec_##SUFFIX *pv = (const vec_##SUFFIX *)panel;                                   \
    for (int64_t n = 0; n < geo[G_N]; n++)                                                  \
        for (int64_t q0 = 0; q0 < positions; q0 += TILE_##SUFFIX) {                         \
            int64_t np = positions - q0 < TILE_##SUFFIX ? positions - q0 : TILE_##SUFFIX;   \
            T *o = out + n * c_out * positions + q0;                                        \
            pack_##SUFFIX(geo, mask, x + n * geo[G_C] * positions, geo[G_C], q0, np,        \
                          panel);                                                           \
            int64_t co = 0;                                                                 \
            for (; co + 4 <= c_out; co += 4)                                                \
                tile_##SUFFIX(4, w + co * kk, kk, pv, bias ? bias + co : 0,                 \
                              o + co * positions, positions, np);                           \
            for (; co < c_out; co++)                                                        \
                tile_##SUFFIX(1, w + co * kk, kk, pv, bias ? bias + co : 0,                 \
                              o + co * positions, positions, np);                           \
        }                                                                                   \
    free(mask);                                                                             \
    free(panel);                                                                            \
    return 0;                                                                               \
}

DEFINE_CONTRACT(float, f32)
DEFINE_CONTRACT(double, f64)

/* The 3D involution: per-position kernels shared by the channels of a group.

   out[n, c, p] = (...((+0 + k[n, g, 0, p] * x[n, c, p + d_0]) + ...) + bias[c]

   over the row-major taps whose read p + d_i stays in the (T, H, W) volume;
   the other taps are skipped, so a non-finite kernel value at a clipped tap
   reaches no output. The VJP sums every element in one fixed order, which no
   shard count changes:

   gx[n, c, p]        = g[n, c, p] * k[n, g, centre, p], then + g[n, c, p - d_i]
                        * k[n, g, i, p - d_i] for the other taps in ascending i
                        whose output p - d_i is in the volume;
   g_kern[n, g, i, p] = +0, then + g[n, c, p] * x[n, c, p + d_i] for the
                        group's channels c in ascending order if the read is in
                        the volume, else +0.

   Both walk a batch element's positions flat, in blocks of TILE, on the
   contraction's position mask. Per block and group, ``kernel_tile_`` masks
   the group's kernels, -0 where a tap is clipped; ``pack_`` then packs one
   channel of x (or g) through every tap, +0 where a tap is clipped. A clipped
   tap thus adds (+0) * (-0) = -0, and s + (-0) = s for every s, -0 included,
   so it is skipped bit for bit, whatever its kernel value, in every sum.
   Output p - d_i lies in the volume exactly where the mirrored tap
   taps - 1 - i, whose displacement is -d_i, reads inside it: the input
   gradient masks tap i's kernels with the mirrored tap's mask and reads the
   mirrored row of the packed g. The kernel gradient sums g * (packed x) over
   the group's channels in a tile of ``sums``, then stores +0 where the tap is
   clipped, since inf * (+0) is NaN.

   ``x``, ``g``, ``out`` and ``gx`` are (N, C, T, H, W), ``k`` and ``g_kern``
   (N, G, taps, T, H, W) and ``bias`` (C,). */

#define DEFINE_INVOLUTION(T, SUFFIX)                                                        \
/* Row i of ``tile``: tap i's kernels kn at flat positions q = q0 + j for j < np where      \
   tap r's mask is set, -0 elsewhere and past np. Unmirrored, r = i and the row reads q;    \
   ``mirrored``, r = taps - 1 - i and the row reads q + d_r = q - d_i. */                   \
static void kernel_tile_##SUFFIX(const int64_t *geo, const unsigned char *mask,             \
                                 const T *kn, int mirrored, int64_t q0, int64_t np,         \
                                 T *tile)                                                   \
{                                                                                           \
    const int64_t s1 = geo[G_SIZE + 1], s2 = geo[G_SIZE + 2], taps = geo[G_TAPS];           \
    const int64_t positions = geo[G_SIZE] * s1 * s2;                                        \
    for (int64_t i = 0; i < taps; i++) {                                                    \
        const int64_t r = mirrored ? taps - 1 - i : i, *tap = geo + G_TAP + r * 9;          \
        const int64_t shift = q0 + (mirrored ? (tap[0] * s1 + tap[3]) * s2 + tap[6] : 0);   \
        const unsigned char *ok = mask + r * positions + q0;                                \
        const T *kr = kn + i * positions;                                                   \
        T *row = tile + i * TILE_##SUFFIX;                                                  \
        for (int64_t j = 0; j < np; j++)                                                    \
            row[j] = ok[j] ? kr[shift + j] : -(T)0;                                         \
        for (int64_t j = np; j < TILE_##SUFFIX; j++)                                        \
            row[j] = -(T)0;                                                                 \
    }                                                                                       \
}                                                                                           \
                                                                                            \
int ddcn_involution_##SUFFIX(const T *x, const T *k, const T *bias, T *out,                 \
                             const int64_t *geo)                                            \
{                                                                                           \
    const int64_t groups = geo[G_GROUPS], rep = geo[G_C] / groups;                          \
    const int64_t taps = geo[G_TAPS], tl = taps * TILE_##SUFFIX;                            \
    const int64_t positions = geo[G_SIZE] * geo[G_SIZE + 1] * geo[G_SIZE + 2];              \
    if (geo[G_N] == 0 || positions == 0)                                                    \
        return 0;                                                                           \
    T *kt = aligned_alloc(VBYTES, 2 * tl * sizeof(T)), *xt = kt + tl;                       \
    unsigned char *mask = position_masks(geo);                                              \
    if (!kt || !mask) {                                                                     \
        free(kt);                                                                           \
        free(mask);                                                                         \
        return -1;                                                                          \
    }                                                                                       \
    const vec_##SUFFIX *kv = (const vec_##SUFFIX *)kt, *xv = (const vec_##SUFFIX *)xt;      \
    for (int64_t ng = 0; ng < geo[G_N] * groups; ng++)                                      \
        for (int64_t q0 = 0; q0 < positions; q0 += TILE_##SUFFIX) {                         \
            int64_t np = positions - q0 < TILE_##SUFFIX ? positions - q0 : TILE_##SUFFIX;   \
            kernel_tile_##SUFFIX(geo, mask, k + ng * taps * positions, 0, q0, np, kt);      \
            for (int64_t r = 0; r < rep; r++) {                                             \
                const int64_t at = (ng * rep + r) * positions;                              \
                pack_##SUFFIX(geo, mask, x + at, 1, q0, np, xt);                            \
                vec_##SUFFIX acc[LANES] = {{0}};                                            \
                for (int64_t i = 0; i < taps; i++)                                          \
                    for (int v = 0; v < LANES; v++)                                         \
                        acc[v] = acc[v] + kv[i * LANES + v] * xv[i * LANES + v];            \
                for (int v = 0; v < LANES; v++)                                             \
                    acc[v] = acc[v] + bias[ng % groups * rep + r];                          \
                memcpy(out + at + q0, acc, np * sizeof(T));                                 \
            }                                                                               \
        }                                                                                   \
    free(mask);                                                                             \
    free(kt);                                                                               \
    return 0;                                                                               \
}                                                                                           \
                                                                                            \
int ddcn_involution_vjp_##SUFFIX(const T *x, const T *k, const T *g, T *gx, T *g_kern,      \
                                 const int64_t *geo)                                        \
{                                                                                           \
    const int64_t groups = geo[G_GROUPS], rep = geo[G_C] / groups;                          \
    const int64_t taps = geo[G_TAPS], centre = taps / 2, tl = taps * TILE_##SUFFIX;         \
    const int64_t positions = geo[G_SIZE] * geo[G_SIZE + 1] * geo[G_SIZE + 2];              \
    if (geo[G_N] == 0 || positions == 0)                                                    \
        return 0;                                                                           \
    T *kt = aligned_alloc(VBYTES, 4 * tl * sizeof(T)), *gt = kt + tl, *xt = gt + tl;        \
    T *sums = xt + tl;                                                                      \
    unsigned char *mask = position_masks(geo);                                              \
    if (!kt || !mask) {                                                                     \
        free(kt);                                                                           \
        free(mask);                                                                         \
        return -1;                                                                          \
    }                                                                                       \
    const vec_##SUFFIX *kv = (const vec_##SUFFIX *)kt, *gv = (const vec_##SUFFIX *)gt;      \
    const vec_##SUFFIX *xv = (const vec_##SUFFIX *)xt, *gc = gv + centre * LANES;           \
    vec_##SUFFIX *sv = (vec_##SUFFIX *)sums;                                                \
    for (int64_t ng = 0; ng < geo[G_N] * groups; ng++)                                      \
        for (int64_t q0 = 0; q0 < positions; q0 += TILE_##SUFFIX) {                         \
            int64_t np = positions - q0 < TILE_##SUFFIX ? positions - q0 : TILE_##SUFFIX;   \
            kernel_tile_##SUFFIX(geo, mask, k + ng * taps * positions, 1, q0, np, kt);      \
            memset(sums, 0, tl * sizeof(T));                                                \
            for (int64_t r = 0; r < rep; r++) {                                             \
                const int64_t at = (ng * rep + r) * positions;                              \
                pack_##SUFFIX(geo, mask, g + at, 1, q0, np, gt);                            \
                pack_##SUFFIX(geo, mask, x + at, 1, q0, np, xt);                            \
                vec_##SUFFIX acc[LANES];                                                    \
                for (int v = 0; v < LANES; v++)                                             \
                    acc[v] = gc[v] * kv[centre * LANES + v];                                \
                for (int64_t i = 0; i < taps; i++) {                                        \
                    if (i == centre)                                                        \
                        continue;                                                           \
                    const vec_##SUFFIX *gm = gv + (taps - 1 - i) * LANES;                   \
                    for (int v = 0; v < LANES; v++)                                         \
                        acc[v] = acc[v] + gm[v] * kv[i * LANES + v];                        \
                }                                                                           \
                memcpy(gx + at + q0, acc, np * sizeof(T));                                  \
                for (int64_t i = 0; i < taps * LANES; i += LANES)                           \
                    for (int v = 0; v < LANES; v++)                                         \
                        sv[i + v] = sv[i + v] + gc[v] * xv[i + v];                          \
            }                                                                               \
            for (int64_t i = 0; i < taps; i++) {                                            \
                const unsigned char *ok = mask + i * positions + q0;                        \
                T *o = g_kern + (ng * taps + i) * positions + q0;                           \
                for (int64_t j = 0; j < np; j++)                                            \
                    o[j] = ok[j] ? sums[i * TILE_##SUFFIX + j] : 0;                         \
            }                                                                               \
        }                                                                                   \
    free(mask);                                                                             \
    free(kt);                                                                               \
    return 0;                                                                               \
}

DEFINE_INVOLUTION(float, f32)
DEFINE_INVOLUTION(double, f64)

/* The deformable dynamic convolution (DDC): per-position kernels applied at
   offset-displaced bilinear samples.

   out[n, c, p] = (...((+0 + k[n, g, 0, p] * s_0) + k[n, g, 1, p] * s_1) ...)

   over the row-major taps i, where s_i samples channel c at r = (y + dy_i) +
   off[n, 2i, p], q = (x + dx_i) + off[n, 2i + 1, p]:

   s = (((+0 + w00 * v00) + w01 * v01) + w10 * v10) + w11 * v11

   with r0 = floor(r), wr = r - r0 (likewise q0, wq), w00 = (1 - wr)(1 - wq),
   w01 = (1 - wr) wq, w10 = wr (1 - wq), w11 = wr wq, and v_ab the input at
   (r0 + a, q0 + b), or +0 (still multiplied) where that cell is off the grid.
   That is ``ddc_oracle``'s order. Whether a cell is on the grid is decided on
   the floats, so a NaN or infinite coordinate reads no cell and gives NaN.

   The VJP has one order of its own, which no shard count or address changes.
   Per batch element, positions row-major, taps ascending and groups
   ascending, with gs = g * k: the input gradient at the four corners adds
   w_ab * gs in order 00, 01, 10, 11; q_ab sums g * v_ab over the group's
   channels, lane l of VL taking channels l, l + VL, ... from +0, then the
   lanes in ascending order from +0; g_kern = (((+0 + w00 q00) + w01 q01) +
   w10 q10) + w11 q11 and p_ab = k * q_ab summed over the groups from +0. Then
   g_r = (p10 - p00)(1 - wq) + (p11 - p01) wq and g_q = (p01 - p00)(1 - wr) +
   (p11 - p10) wr.

   Per batch element, x (and g) are copied into channel-last rows of ``cs``
   elements, each group's channels padded with zeros to whole vectors, plus
   one zero row that off-grid corners read (and whose gradient is dropped).
   ``x``, ``g``, ``out`` and ``gx`` are (N, C, H, W), ``off`` and ``g_off``
   (N, 2 taps, H, W), ``k`` and ``g_kern`` (N, G, taps, H, W). */

#define DEFINE_DDC(T, FLOOR, SUFFIX)                                                        \
enum { VL_##SUFFIX = VBYTES / sizeof(T) };                                                  \
                                                                                            \
static inline vec_##SUFFIX load_##SUFFIX(const T *p)                                        \
{                                                                                           \
    vec_##SUFFIX v;                                                                         \
    memcpy(&v, p, sizeof v);                                                                \
    return v;                                                                               \
}                                                                                           \
                                                                                            \
/* The width of a channel-last row: each group's channels padded with zeros to ``repp``,  \
   a whole number of vectors. */                                                            \
static int64_t row_width_##SUFFIX(const int64_t *geo, int64_t *repp)                        \
{                                                                                           \
    const int64_t rep = geo[G_C] / geo[G_GROUPS];                                           \
    *repp = (rep + VL_##SUFFIX - 1) / VL_##SUFFIX * VL_##SUFFIX;                            \
    return geo[G_GROUPS] * *repp;                                                           \
}                                                                                           \
                                                                                            \
/* The C planes of one batch element into the channel-last rows: channel ci of position     \
   p at rows + p * cs + col(ci). */                                                         \
static void to_rows_##SUFFIX(const T *planes, const int64_t *geo, int64_t repp, T *rows)    \
{                                                                                           \
    const int64_t rep = geo[G_C] / geo[G_GROUPS], cs = geo[G_GROUPS] * repp;                \
    const int64_t hw = geo[G_SIZE + 1] * geo[G_SIZE + 2];                                   \
    for (int64_t ci = 0; ci < geo[G_C]; ci++) {                                             \
        const T *plane = planes + ci * hw;                                                  \
        T *col = rows + ci / rep * repp + ci % rep;                                         \
        for (int64_t p = 0; p < hw; p++)                                                    \
            col[p * cs] = plane[p];                                                         \
    }                                                                                       \
}                                                                                           \
                                                                                            \
/* The inverse of to_rows into the C-contiguous planes of one batch element. */             \
static void from_rows_##SUFFIX(const T *rows, const int64_t *geo, int64_t repp, T *planes)  \
{                                                                                           \
    const int64_t rep = geo[G_C] / geo[G_GROUPS], cs = geo[G_GROUPS] * repp;                \
    const int64_t hw = geo[G_SIZE + 1] * geo[G_SIZE + 2];                                   \
    for (int64_t ci = 0; ci < geo[G_C]; ci++) {                                             \
        const T *col = rows + ci / rep * repp + ci % rep;                                   \
        T *plane = planes + ci * hw;                                                        \
        for (int64_t p = 0; p < hw; p++)                                                    \
            plane[p] = col[p * cs];                                                         \
    }                                                                                       \
}                                                                                           \
                                                                                            \
/* The bilinear weights w00, w01, w10, w11 of (r, q), its fractional parts, and the rows    \
   of its four corners (row hw, the zero row, where a corner is off the grid). */           \
static inline void bilinear_##SUFFIX(T r, T q, const int64_t *geo, T *wt, T *frac,          \
                                     int64_t *cell)                                         \
{                                                                                           \
    const int64_t h = geo[G_SIZE + 1], w = geo[G_SIZE + 2];                                 \
    const T one = 1, r0 = FLOOR(r), q0 = FLOOR(q), wr = r - r0, wq = q - q0;                \
    wt[0] = (one - wr) * (one - wq);                                                        \
    wt[1] = (one - wr) * wq;                                                                \
    wt[2] = wr * (one - wq);                                                                \
    wt[3] = wr * wq;                                                                        \
    frac[0] = wr;                                                                           \
    frac[1] = wq;                                                                           \
    const int rows[2] = {r0 >= 0 && r0 < (T)h, r0 >= -1 && r0 < (T)(h - 1)};                \
    const int cols[2] = {q0 >= 0 && q0 < (T)w, q0 >= -1 && q0 < (T)(w - 1)};                \
    for (int a = 0; a < 2; a++)                                                             \
        for (int b = 0; b < 2; b++)                                                         \
            cell[2 * a + b] = rows[a] && cols[b] ? ((int64_t)r0 + a) * w + (int64_t)q0 + b  \
                                                 : h * w;                                   \
}                                                                                           \
                                                                                            \
/* Tap t's sampling point at position (y, x) of batch element n. */                         \
static inline void point_##SUFFIX(const T *off, const int64_t *geo, int64_t n, int64_t t,   \
                                  int64_t y, int64_t x, T *wt, T *frac, int64_t *cell)      \
{                                                                                           \
    const int64_t *tap = geo + G_TAP + t * 9, hw = geo[G_SIZE + 1] * geo[G_SIZE + 2];       \
    const T *o = off + (n * 2 * geo[G_TAPS] + 2 * t) * hw + y * geo[G_SIZE + 2] + x;        \
    bilinear_##SUFFIX((T)(y + tap[3]) + o[0], (T)(x + tap[6]) + o[hw], geo, wt, frac,       \
                      cell);                                                                \
}                                                                                           \
                                                                                            \
int ddcn_ddc_##SUFFIX(const T *x, const T *off, const T *k, T *out, const int64_t *geo)     \
{                                                                                           \
    const int64_t c = geo[G_C], groups = geo[G_GROUPS], taps = geo[G_TAPS];                 \
    const int64_t w = geo[G_SIZE + 2], hw = geo[G_SIZE + 1] * w;                            \
    int64_t repp;                                                                           \
    const int64_t cs = row_width_##SUFFIX(geo, &repp);                                      \
    if (geo[G_N] == 0 || hw == 0 || c == 0)                                                 \
        return 0;                                                                           \
    T *xt = calloc((hw + 1) * cs, sizeof(T)), *ot = malloc(hw * cs * sizeof(T));            \
    T *wts = malloc(taps * 4 * sizeof(T));                                                  \
    int64_t *cells = malloc(taps * 4 * sizeof(int64_t));                                    \
    if (!xt || !ot || !wts || !cells) {                                                     \
        free(xt);                                                                           \
        free(ot);                                                                           \
        free(wts);                                                                          \
        free(cells);                                                                        \
        return -1;                                                                          \
    }                                                                                       \
    for (int64_t n = 0; n < geo[G_N]; n++) {                                                \
        to_rows_##SUFFIX(x + n * c * hw, geo, repp, xt);                                    \
        for (int64_t p = 0; p < hw; p++) {                                                  \
            T frac[2];                                                                      \
            for (int64_t t = 0; t < taps; t++)                                              \
                point_##SUFFIX(off, geo, n, t, p / w, p % w, wts + 4 * t, frac,             \
                               cells + 4 * t);                                              \
            for (int64_t grp = 0; grp < groups; grp++) {                                    \
                const T *kp = k + (n * groups + grp) * taps * hw + p;                       \
                for (int64_t j = grp * repp; j < (grp + 1) * repp; j += VL_##SUFFIX) {      \
                    vec_##SUFFIX acc = {0};                                                 \
                    for (int64_t t = 0; t < taps; t++) {                                    \
                        const T *wt = wts + 4 * t;                                          \
                        const int64_t *cell = cells + 4 * t;                                \
                        const vec_##SUFFIX zero = {0};                                      \
                        vec_##SUFFIX s = zero                                               \
                                         + wt[0] * load_##SUFFIX(xt + cell[0] * cs + j);    \
                        s = s + wt[1] * load_##SUFFIX(xt + cell[1] * cs + j);               \
                        s = s + wt[2] * load_##SUFFIX(xt + cell[2] * cs + j);               \
                        s = s + wt[3] * load_##SUFFIX(xt + cell[3] * cs + j);               \
                        acc = acc + kp[t * hw] * s;                                         \
                    }                                                                       \
                    memcpy(ot + p * cs + j, &acc, sizeof acc);                              \
                }                                                                           \
            }                                                                               \
        }                                                                                   \
        from_rows_##SUFFIX(ot, geo, repp, out + n * c * hw);                                \
    }                                                                                       \
    free(xt);                                                                               \
    free(ot);                                                                               \
    free(wts);                                                                              \
    free(cells);                                                                            \
    return 0;                                                                               \
}                                                                                           \
                                                                                            \
int ddcn_ddc_vjp_##SUFFIX(const T *x, const T *off, const T *k, const T *g, T *gx,          \
                          T *g_off, T *g_kern, const int64_t *geo)                          \
{                                                                                           \
    const int64_t c = geo[G_C], groups = geo[G_GROUPS], taps = geo[G_TAPS];                 \
    const int64_t w = geo[G_SIZE + 2], hw = geo[G_SIZE + 1] * w;                            \
    int64_t repp;                                                                           \
    const int64_t cs = row_width_##SUFFIX(geo, &repp);                                      \
    if (geo[G_N] == 0 || hw == 0 || c == 0)                                                 \
        return 0;                                                                           \
    T *xt = calloc((hw + 1) * cs, sizeof(T)), *gt = calloc(hw * cs, sizeof(T));             \
    T *gxt = malloc((hw + 1) * cs * sizeof(T));                                             \
    if (!xt || !gt || !gxt) {                                                               \
        free(xt);                                                                           \
        free(gt);                                                                           \
        free(gxt);                                                                          \
        return -1;                                                                          \
    }                                                                                       \
    for (int64_t n = 0; n < geo[G_N]; n++) {                                                \
        to_rows_##SUFFIX(x + n * c * hw, geo, repp, xt);                                    \
        to_rows_##SUFFIX(g + n * c * hw, geo, repp, gt);                                    \
        memset(gxt, 0, (hw + 1) * cs * sizeof(T));                                          \
        for (int64_t p = 0; p < hw; p++)                                                    \
            for (int64_t t = 0; t < taps; t++) {                                            \
                T wt[4], frac[2], pk[4] = {0, 0, 0, 0};                                     \
                int64_t cell[4];                                                            \
                point_##SUFFIX(off, geo, n, t, p / w, p % w, wt, frac, cell);               \
                for (int64_t grp = 0; grp < groups; grp++) {                                \
                    const T kv = k[((n * groups + grp) * taps + t) * hw + p];               \
                    vec_##SUFFIX qv[4] = {{0}};                                             \
                    for (int64_t j = grp * repp; j < (grp + 1) * repp; j += VL_##SUFFIX) {  \
                        const vec_##SUFFIX gv = load_##SUFFIX(gt + p * cs + j);             \
                        const vec_##SUFFIX gs = gv * kv;                                    \
                        for (int a = 0; a < 4; a++) {                                       \
                            T *d = gxt + cell[a] * cs + j;                                  \
                            qv[a] = qv[a] + gv * load_##SUFFIX(xt + cell[a] * cs + j);      \
                            const vec_##SUFFIX sum = load_##SUFFIX(d) + wt[a] * gs;         \
                            memcpy(d, &sum, sizeof sum);                                    \
                        }                                                                   \
                    }                                                                       \
                    T q[4], gk = 0;                                                         \
                    for (int a = 0; a < 4; a++) {                                           \
                        q[a] = 0;                                                           \
                        for (int l = 0; l < VL_##SUFFIX; l++)                               \
                            q[a] = q[a] + qv[a][l];                                         \
                        gk = gk + wt[a] * q[a];                                             \
                        pk[a] = pk[a] + kv * q[a];                                          \
                    }                                                                       \
                    g_kern[((n * groups + grp) * taps + t) * hw + p] = gk;                  \
                }                                                                           \
                const T one = 1, wr = frac[0], wq = frac[1];                                \
                T *go = g_off + (n * 2 * taps + 2 * t) * hw + p;                            \
                go[0] = (pk[2] - pk[0]) * (one - wq) + (pk[3] - pk[1]) * wq;                \
                go[hw] = (pk[1] - pk[0]) * (one - wr) + (pk[3] - pk[2]) * wr;               \
            }                                                                               \
        from_rows_##SUFFIX(gxt, geo, repp, gx + n * c * hw);                                \
    }                                                                                       \
    free(xt);                                                                               \
    free(gt);                                                                               \
    free(gxt);                                                                              \
    return 0;                                                                               \
}

DEFINE_DDC(float, __builtin_floorf, f32)
DEFINE_DDC(double, __builtin_floor, f64)
