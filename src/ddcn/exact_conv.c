/* ddcn's compiled kernels: the exact-order contraction of the fixed-weight
   convolutions, then the forwards and VJPs of the 3D involution and of the
   deformable dynamic convolution (further below).

   The contraction:

   out[n, co, pos] = (...((+0 + w[co, 0] * v_0) + w[co, 1] * v_1) ...) + bias[co]

   for k = (input channel, row-major tap) ascending, where v_k is the input
   the tap reads at ``pos``, or +0 where that read leaves the input. Every
   term is one rounded multiply and one rounded add: built without
   -ffast-math and with -ffp-contract=off, nothing is fused or reassociated,
   so each output element has the bits of the scalar loop, whatever the
   vector width.

   One call runs one shard. Positions are walked in blocks of TILE within
   one plane (the last two spatial axes). Each block's input is packed for
   every k into ``panel``, then the output channels are swept four at a
   time, with a 4 x TILE accumulator tile held in registers across all k
   (Goto and van de Geijn, "Anatomy of High-Performance Matrix
   Multiplication", ACM TOMS 34(3), 2008).

   ``w`` is C-contiguous (C_out, C_in * taps), ``out`` C-contiguous (N,
   C_out, positions) and ``bias`` (C_out,) or NULL. ``g`` is int64: N, C_in,
   C_out, taps, the three spatial sizes, the element strides of x's batch,
   channel and first spatial axis, then per tap and axis (displacement d,
   first output, end output): outputs [first, end) read input o + d. Spatial
   ranks below three lead with axes of size 1; each plane of x is
   C-contiguous. Returns 0, or -1 if a buffer cannot be allocated. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define VBYTES 64
#define LANES 4 /* vectors per tile row: 64 float32 or 32 float64 positions */

enum { G_N, G_CIN, G_COUT, G_TAPS, G_SIZE, G_STRIDE_N = 7, G_STRIDE_C, G_STRIDE_0, G_TAP };

static int64_t clamp(int64_t v, int64_t lo, int64_t hi) { return v < lo ? lo : v > hi ? hi : v; }

/* mask[t * plane + q]: whether tap t reads inside the input along the plane's two
   axes at in-plane position q. */
static unsigned char *plane_masks(const int64_t *g)
{
    const int64_t s1 = g[G_SIZE + 1], s2 = g[G_SIZE + 2], plane = s1 * s2;
    unsigned char *mask = malloc(g[G_TAPS] * plane + 1);
    if (!mask)
        return 0;
    for (int64_t t = 0; t < g[G_TAPS]; t++) {
        const int64_t *tap = g + G_TAP + t * 9;
        for (int64_t i1 = 0; i1 < s1; i1++)
            for (int64_t i2 = 0; i2 < s2; i2++)
                mask[t * plane + i1 * s2 + i2] = i1 >= tap[4] && i1 < tap[5]
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
/* Panel row ci * taps + t: channel ci of batch element xn through tap t at in-plane   \
   positions [q0, q0 + np) of plane i0; +0 where the tap leaves the input and past     \
   np. Within a plane a tap reads one flat span, shifted by d1 * s2 + d2. */           \
static void pack_##SUFFIX(const int64_t *g, const unsigned char *mask, const T *xn,         \
                          int64_t i0, int64_t q0, int64_t np, T *panel)                     \
{                                                                                           \
    const int64_t plane = g[G_SIZE + 1] * g[G_SIZE + 2], taps = g[G_TAPS];                  \
    for (int64_t t = 0; t < taps; t++) {                                                    \
        const int64_t *tap = g + G_TAP + t * 9;                                             \
        const int64_t shift = q0 + tap[3] * g[G_SIZE + 2] + tap[6];                         \
        const unsigned char *ok = mask + t * plane + q0;                                    \
        int64_t lo = 0, hi = 0; /* the part of the block whose read stays in the plane */  \
        if (i0 >= tap[1] && i0 < tap[2]) {                                                  \
            lo = clamp(-shift, 0, np);                                                      \
            hi = clamp(plane - shift, lo, np);                                              \
        }                                                                                   \
        for (int64_t ci = 0; ci < g[G_CIN]; ci++) {                                         \
            T *row = panel + (ci * taps + t) * TILE_##SUFFIX;                               \
            for (int64_t j = 0; j < lo; j++)                                                \
                row[j] = 0;                                                                 \
            if (lo < hi) {                                                                  \
                const T *src = xn + ci * g[G_STRIDE_C] + (i0 + tap[0]) * g[G_STRIDE_0]      \
                               + shift + lo;                                                \
                for (int64_t j = lo; j < hi; j++)                                           \
                    row[j] = ok[j] ? src[j - lo] : 0;                                       \
            }                                                                               \
            for (int64_t j = hi; j < TILE_##SUFFIX; j++)                                    \
                row[j] = 0;                                                                 \
        }                                                                                   \
    }                                                                                       \
}                                                                                           \
                                                                                            \
int ddcn_contract_##SUFFIX(const T *x, const T *w, const T *bias, T *out, const int64_t *g) \
{                                                                                           \
    const int64_t c_out = g[G_COUT], kk = g[G_CIN] * g[G_TAPS];                             \
    const int64_t plane = g[G_SIZE + 1] * g[G_SIZE + 2], positions = g[G_SIZE] * plane;     \
    if (g[G_N] == 0 || positions == 0)                                                      \
        return 0;                                                                           \
    T *panel = aligned_alloc(VBYTES, (kk + 1) * TILE_##SUFFIX * sizeof(T));                 \
    unsigned char *mask = plane_masks(g);                                                   \
    if (!panel || !mask) {                                                                  \
        free(panel);                                                                        \
        free(mask);                                                                         \
        return -1;                                                                          \
    }                                                                                       \
    const vec_##SUFFIX *pv = (const vec_##SUFFIX *)panel;                                   \
    for (int64_t n = 0; n < g[G_N]; n++)                                                    \
        for (int64_t i0 = 0; i0 < g[G_SIZE]; i0++)                                          \
            for (int64_t q0 = 0; q0 < plane; q0 += TILE_##SUFFIX) {                         \
                int64_t np = plane - q0 < TILE_##SUFFIX ? plane - q0 : TILE_##SUFFIX;       \
                T *o = out + n * c_out * positions + i0 * plane + q0;                       \
                pack_##SUFFIX(g, mask, x + n * g[G_STRIDE_N], i0, q0, np, panel);           \
                int64_t co = 0;                                                             \
                for (; co + 4 <= c_out; co += 4)                                            \
                    tile_##SUFFIX(4, w + co * kk, kk, pv, bias ? bias + co : 0,             \
                                  o + co * positions, positions, np);                       \
                for (; co < c_out; co++)                                                    \
                    tile_##SUFFIX(1, w + co * kk, kk, pv, bias ? bias + co : 0,             \
                                  o + co * positions, positions, np);                       \
            }                                                                               \
    free(mask);                                                                             \
    free(panel);                                                                            \
    return 0;                                                                               \
}

DEFINE_CONTRACT(float, f32)
DEFINE_CONTRACT(double, f64)

/* The 3D involution: per-position kernels shared by the channels of a group.

   out[n, c, p] = (...((+0 + k[n, g, 0, p] * x[n, c, p + d_0]) + ...) + bias[c]

   over the row-major taps whose read p + d_i stays in the (T, H, W) volume;
   the other taps are skipped, not multiplied by zero, so a non-finite kernel
   value at a clipped tap reaches no output. The VJP has the numpy VJP's
   order for every element:

   gx[n, c, p]        = g[n, c, p] * k[n, g, centre, p], then + g[n, c, p - d_i]
                        * k[n, g, i, p - d_i] for the other taps in ascending i
                        whose output p - d_i is in the volume;
   g_kern[n, g, i, p] = +0, then + g[n, c, p] * x[n, c, p + d_i] for the
                        group's channels c in ascending order if the read is in
                        the volume, else +0.

   One call runs one shard. Per (batch element, group), the kernels and the
   group's channels of x (and g) are copied into zero-bordered rows, so every
   tap reads whole vectors of a row, shifted by its x displacement, without
   leaving the buffer; a lane whose tap is clipped along x keeps its sum
   (``blend``). ``gi`` is int64: N, C, G, taps, T, H, W, then the element
   strides of x (batch, channel, T), k (batch, group, tap, T) and g (batch,
   channel, T), then per tap and axis (displacement d, first output, end
   output) as for the contraction. Each (H, W) plane of x, k and g is
   C-contiguous; out, gx and g_kern are C-contiguous. Returns 0, or -1 if a
   buffer cannot be allocated. */

enum { I_N, I_C, I_G, I_TAPS, I_T, I_H, I_W, I_SX, I_SK = I_SX + 3, I_SG = I_SK + 4,
       I_TAP = I_SG + 3 };

/* Whether tap ``tap`` feeds output row (t, y). */
static int feeds(const int64_t *tap, int64_t t, int64_t y)
{
    return t >= tap[1] && t < tap[2] && y >= tap[4] && y < tap[5];
}

/* The largest x displacement of any tap: the zero border of a copied row. */
static int64_t reach(const int64_t *gi)
{
    int64_t r = 0;
    for (int64_t i = 0; i < gi[I_TAPS]; i++) {
        const int64_t dx = gi[I_TAP + i * 9 + 6];
        r = dx > r ? dx : -dx > r ? -dx : r;
    }
    return r;
}

#define DEFINE_INVOLUTION(T, I, SUFFIX)                                                     \
typedef I ivec_##SUFFIX __attribute__((vector_size(VBYTES)));                               \
enum { VL_##SUFFIX = VBYTES / sizeof(T) };                                                  \
                                                                                            \
static inline vec_##SUFFIX load_##SUFFIX(const T *p)                                        \
{                                                                                           \
    vec_##SUFFIX v;                                                                         \
    memcpy(&v, p, sizeof v);                                                                \
    return v;                                                                               \
}                                                                                           \
                                                                                            \
/* The first ``len`` lanes of ``v`` to p. */                                               \
static inline void store_##SUFFIX(T *p, vec_##SUFFIX v, int64_t len)                        \
{                                                                                           \
    if (len >= VL_##SUFFIX)                                                                 \
        memcpy(p, &v, sizeof v);                                                            \
    else                                                                                    \
        memcpy(p, &v, len * sizeof(T));                                                     \
}                                                                                           \
                                                                                            \
/* Lane l of ``in`` where j0 + l lies in [lo, hi), else lane l of ``out``. */              \
static inline vec_##SUFFIX blend_##SUFFIX(int64_t j0, int64_t lo, int64_t hi,               \
                                          vec_##SUFFIX in, vec_##SUFFIX out)                \
{                                                                                           \
    static const I iota[16] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};       \
    ivec_##SUFFIX j;                                                                        \
    memcpy(&j, iota, sizeof j);                                                             \
    j += (I)j0;                                                                             \
    const ivec_##SUFFIX m = (j >= (I)lo) & (j < (I)hi);                                     \
    return (vec_##SUFFIX)((m & (ivec_##SUFFIX)in) | (~m & (ivec_##SUFFIX)out));             \
}                                                                                           \
                                                                                            \
/* acc + prod in the lanes j0 + l of a row of w that lie in [lo, hi), acc elsewhere. */     \
static inline vec_##SUFFIX add_in_##SUFFIX(int64_t j0, int64_t w, int64_t lo, int64_t hi,   \
                                           vec_##SUFFIX acc, vec_##SUFFIX prod)             \
{                                                                                           \
    const int64_t end = j0 + VL_##SUFFIX < w ? j0 + VL_##SUFFIX : w;                        \
    if (lo <= j0 && end <= hi)                                                              \
        return acc + prod;                                                                  \
    return blend_##SUFFIX(j0, lo, hi, acc + prod, acc);                                     \
}                                                                                           \
                                                                                            \
/* Volumes [0, planes) of ``src`` (volume p at src + p * sp, its T slices of (H, W)       \
   sp_t apart) into the zero-bordered rows of ``dst``: row (p, t, y) at ((p * T + t) * H    \
   + y) * wp, the values at offset rx. */                                                   \
static void pad_##SUFFIX(const T *src, int64_t sp, int64_t sp_t, int64_t planes,           \
                         const int64_t *gi, int64_t rx, int64_t wp, T *dst)                 \
{                                                                                           \
    const int64_t tt = gi[I_T], h = gi[I_H], w = gi[I_W];                                   \
    for (int64_t p = 0; p < planes; p++)                                                    \
        for (int64_t t = 0; t < tt; t++)                                                    \
            for (int64_t y = 0; y < h; y++)                                                 \
                memcpy(dst + ((p * tt + t) * h + y) * wp + rx, src + p * sp + t * sp_t      \
                       + y * w, w * sizeof(T));                                             \
}                                                                                           \
                                                                                            \
int ddcn_involution_##SUFFIX(const T *x, const T *k, const T *bias, T *out,                \
                             const int64_t *gi)                                             \
{                                                                                           \
    const int64_t c_all = gi[I_C], rep = c_all / gi[I_G], taps = gi[I_TAPS];               \
    const int64_t tt = gi[I_T], h = gi[I_H], w = gi[I_W], *sx = gi + I_SX, *sk = gi + I_SK; \
    const int64_t rx = reach(gi), nv = (w + VL_##SUFFIX - 1) / VL_##SUFFIX;                 \
    const int64_t wp = nv * VL_##SUFFIX + 2 * rx, plane = tt * h * wp;                      \
    if (gi[I_N] == 0 || plane == 0 || nv == 0)                                              \
        return 0;                                                                           \
    T *kp = calloc(taps * plane, sizeof(T)), *xp = calloc(rep * plane, sizeof(T));          \
    if (!kp || !xp) {                                                                       \
        free(kp);                                                                           \
        free(xp);                                                                           \
        return -1;                                                                          \
    }                                                                                       \
    for (int64_t n = 0; n < gi[I_N]; n++)                                                   \
        for (int64_t grp = 0; grp < gi[I_G]; grp++) {                                       \
            pad_##SUFFIX(k + n * sk[0] + grp * sk[1], sk[2], sk[3], taps, gi, rx, wp, kp);  \
            pad_##SUFFIX(x + n * sx[0] + grp * rep * sx[1], sx[1], sx[2], rep, gi, rx, wp, \
                         xp);                                                               \
            for (int64_t t = 0; t < tt; t++)                                                \
                for (int64_t y = 0; y < h; y++)                                             \
                    for (int64_t r = 0; r < rep; r++) {                                     \
                        const int64_t c = grp * rep + r;                                    \
                        T *o = out + ((n * c_all + c) * tt + t) * h * w + y * w;            \
                        for (int64_t j0 = 0; j0 < w; j0 += VL_##SUFFIX) {                   \
                            vec_##SUFFIX acc = {0};                                         \
                            for (int64_t i = 0; i < taps; i++) {                            \
                                const int64_t *tap = gi + I_TAP + i * 9;                    \
                                if (!feeds(tap, t, y) || tap[8] <= j0                       \
                                    || tap[7] >= j0 + VL_##SUFFIX)                          \
                                    continue;                                               \
                                const T *kr = kp + i * plane + (t * h + y) * wp + rx + j0;  \
                                const T *xr = xp + r * plane                                \
                                              + ((t + tap[0]) * h + y + tap[3]) * wp + rx   \
                                              + j0 + tap[6];                                \
                                acc = add_in_##SUFFIX(j0, w, tap[7], tap[8], acc,           \
                                                      load_##SUFFIX(kr)                     \
                                                      * load_##SUFFIX(xr));                 \
                            }                                                               \
                            store_##SUFFIX(o + j0, acc + bias[c], w - j0);                  \
                        }                                                                   \
                    }                                                                       \
        }                                                                                   \
    free(kp);                                                                               \
    free(xp);                                                                               \
    return 0;                                                                               \
}                                                                                           \
                                                                                            \
int ddcn_involution_vjp_##SUFFIX(const T *x, const T *k, const T *g, T *gx, T *g_kern,     \
                                 const int64_t *gi)                                         \
{                                                                                           \
    const int64_t c_all = gi[I_C], rep = c_all / gi[I_G], taps = gi[I_TAPS];               \
    const int64_t tt = gi[I_T], h = gi[I_H], w = gi[I_W], centre = taps / 2;               \
    const int64_t *sx = gi + I_SX, *sk = gi + I_SK, *sg = gi + I_SG;                        \
    const int64_t rx = reach(gi), nv = (w + VL_##SUFFIX - 1) / VL_##SUFFIX;                 \
    const int64_t wp = nv * VL_##SUFFIX + 2 * rx, plane = tt * h * wp;                      \
    if (gi[I_N] == 0 || plane == 0 || nv == 0)                                              \
        return 0;                                                                           \
    T *kp = calloc(taps * plane, sizeof(T)), *xp = calloc(rep * plane, sizeof(T));          \
    T *gp = calloc(rep * plane, sizeof(T));                                                 \
    if (!kp || !xp || !gp) {                                                                \
        free(kp);                                                                           \
        free(xp);                                                                           \
        free(gp);                                                                           \
        return -1;                                                                          \
    }                                                                                       \
    const vec_##SUFFIX zero = {0};                                                          \
    for (int64_t n = 0; n < gi[I_N]; n++)                                                   \
        for (int64_t grp = 0; grp < gi[I_G]; grp++) {                                       \
            pad_##SUFFIX(k + n * sk[0] + grp * sk[1], sk[2], sk[3], taps, gi, rx, wp, kp);  \
            pad_##SUFFIX(x + n * sx[0] + grp * rep * sx[1], sx[1], sx[2], rep, gi, rx, wp, \
                         xp);                                                               \
            pad_##SUFFIX(g + n * sg[0] + grp * rep * sg[1], sg[1], sg[2], rep, gi, rx, wp, \
                         gp);                                                               \
            for (int64_t t = 0; t < tt; t++)                                                \
                for (int64_t y = 0; y < h; y++) {                                           \
                    const int64_t row = (t * h + y) * wp + rx;                              \
                    for (int64_t r = 0; r < rep; r++) {                                     \
                        const int64_t c = grp * rep + r;                                    \
                        T *o = gx + ((n * c_all + c) * tt + t) * h * w + y * w;             \
                        for (int64_t j0 = 0; j0 < w; j0 += VL_##SUFFIX) {                   \
                            vec_##SUFFIX acc = load_##SUFFIX(gp + r * plane + row + j0)     \
                                               * load_##SUFFIX(kp + centre * plane + row    \
                                                               + j0);                       \
                            for (int64_t i = 0; i < taps; i++) {                            \
                                const int64_t *tap = gi + I_TAP + i * 9;                    \
                                const int64_t ot = t - tap[0], oy = y - tap[3];             \
                                const int64_t lo = tap[7] + tap[6], hi = tap[8] + tap[6];   \
                                if (i == centre || !feeds(tap, ot, oy) || hi <= j0          \
                                    || lo >= j0 + VL_##SUFFIX)                              \
                                    continue;                                               \
                                const int64_t at = (ot * h + oy) * wp + rx + j0 - tap[6];   \
                                acc = add_in_##SUFFIX(j0, w, lo, hi, acc,                   \
                                                      load_##SUFFIX(gp + r * plane + at)    \
                                                      * load_##SUFFIX(kp + i * plane + at));\
                            }                                                               \
                            store_##SUFFIX(o + j0, acc, w - j0);                            \
                        }                                                                   \
                    }                                                                       \
                    for (int64_t i = 0; i < taps; i++) {                                    \
                        const int64_t *tap = gi + I_TAP + i * 9;                            \
                        T *o = g_kern + (((n * gi[I_G] + grp) * taps + i) * tt + t) * h * w \
                               + y * w;                                                     \
                        if (!feeds(tap, t, y)) {                                            \
                            memset(o, 0, w * sizeof(T));                                    \
                            continue;                                                       \
                        }                                                                   \
                        const int64_t at = ((t + tap[0]) * h + y + tap[3]) * wp + rx        \
                                           + tap[6];                                        \
                        for (int64_t j0 = 0; j0 < w; j0 += VL_##SUFFIX) {                   \
                            vec_##SUFFIX acc = zero;                                        \
                            for (int64_t r = 0; r < rep; r++)                               \
                                acc = acc + load_##SUFFIX(gp + r * plane + row + j0)        \
                                            * load_##SUFFIX(xp + r * plane + at + j0);      \
                            store_##SUFFIX(o + j0, blend_##SUFFIX(j0, tap[7], tap[8], acc,  \
                                                                  zero), w - j0);           \
                        }                                                                   \
                    }                                                                       \
                }                                                                           \
        }                                                                                   \
    free(kp);                                                                               \
    free(xp);                                                                               \
    free(gp);                                                                               \
    return 0;                                                                               \
}

DEFINE_INVOLUTION(float, int32_t, f32)
DEFINE_INVOLUTION(double, int64_t, f64)

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

   One call runs one shard. Per batch element, x (and g) are copied into
   channel-last rows of ``cs`` elements, each group's channels padded with
   zeros to whole vectors, plus one zero row that off-grid corners read (and
   whose gradient is dropped). ``gd`` is int64: N, C, G, taps, H, W, the
   element strides of x (batch, channel), off (batch, channel), k (batch,
   group, tap) and g (batch, channel), then per tap and axis (displacement d,
   first output, end output) as for the contraction. Each (H, W) plane of x,
   off, k and g is C-contiguous; out, gx, g_off and g_kern are C-contiguous.
   Returns 0, or -1 if a buffer cannot be allocated. */

enum { D_N, D_C, D_G, D_TAPS, D_H, D_W, D_SX, D_SO = D_SX + 2, D_SK = D_SO + 2,
       D_SG = D_SK + 3, D_TAP = D_SG + 2 };

#define DEFINE_DDC(T, FLOOR, SUFFIX)                                                        \
/* The width of a channel-last row: each group's channels padded with zeros to ``repp``,  \
   a whole number of vectors. */                                                            \
static int64_t row_width_##SUFFIX(const int64_t *gd, int64_t *repp)                         \
{                                                                                           \
    const int64_t rep = gd[D_C] / gd[D_G];                                                  \
    *repp = (rep + VL_##SUFFIX - 1) / VL_##SUFFIX * VL_##SUFFIX;                            \
    return gd[D_G] * *repp;                                                                 \
}                                                                                           \
                                                                                            \
/* The C channels of one batch element (channel ci at planes + ci * sc) into the            \
   channel-last rows: channel ci of position p at rows + p * cs + col(ci). */               \
static void to_rows_##SUFFIX(const T *planes, int64_t sc, const int64_t *gd, int64_t repp,  \
                             T *rows)                                                       \
{                                                                                           \
    const int64_t rep = gd[D_C] / gd[D_G], hw = gd[D_H] * gd[D_W], cs = gd[D_G] * repp;     \
    for (int64_t ci = 0; ci < gd[D_C]; ci++) {                                              \
        const T *plane = planes + ci * sc;                                                  \
        T *col = rows + ci / rep * repp + ci % rep;                                         \
        for (int64_t p = 0; p < hw; p++)                                                    \
            col[p * cs] = plane[p];                                                         \
    }                                                                                       \
}                                                                                           \
                                                                                            \
/* The inverse of to_rows into the C-contiguous planes of one batch element. */             \
static void from_rows_##SUFFIX(const T *rows, const int64_t *gd, int64_t repp, T *planes)   \
{                                                                                           \
    const int64_t rep = gd[D_C] / gd[D_G], hw = gd[D_H] * gd[D_W], cs = gd[D_G] * repp;     \
    for (int64_t ci = 0; ci < gd[D_C]; ci++) {                                              \
        const T *col = rows + ci / rep * repp + ci % rep;                                   \
        T *plane = planes + ci * hw;                                                        \
        for (int64_t p = 0; p < hw; p++)                                                    \
            plane[p] = col[p * cs];                                                         \
    }                                                                                       \
}                                                                                           \
                                                                                            \
/* The bilinear weights w00, w01, w10, w11 of (r, q), its fractional parts, and the rows    \
   of its four corners (row hw, the zero row, where a corner is off the grid). */           \
static inline void bilinear_##SUFFIX(T r, T q, const int64_t *gd, T *wt, T *frac,           \
                                     int64_t *cell)                                         \
{                                                                                           \
    const int64_t h = gd[D_H], w = gd[D_W];                                                 \
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
static inline void point_##SUFFIX(const T *off, const int64_t *gd, int64_t n, int64_t t,    \
                                  int64_t y, int64_t x, T *wt, T *frac, int64_t *cell)      \
{                                                                                           \
    const int64_t *tap = gd + D_TAP + t * 6, *so = gd + D_SO, p = y * gd[D_W] + x;          \
    const T *o = off + n * so[0] + 2 * t * so[1] + p;                                       \
    bilinear_##SUFFIX((T)(y + tap[0]) + o[0], (T)(x + tap[3]) + o[so[1]], gd, wt, frac,     \
                      cell);                                                                \
}                                                                                           \
                                                                                            \
int ddcn_ddc_##SUFFIX(const T *x, const T *off, const T *k, T *out, const int64_t *gd)      \
{                                                                                           \
    const int64_t c = gd[D_C], taps = gd[D_TAPS], w = gd[D_W], hw = gd[D_H] * w;            \
    const int64_t *sk = gd + D_SK;                                                          \
    int64_t repp;                                                                           \
    const int64_t cs = row_width_##SUFFIX(gd, &repp);                                       \
    if (gd[D_N] == 0 || hw == 0 || c == 0)                                                  \
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
    for (int64_t n = 0; n < gd[D_N]; n++) {                                                 \
        to_rows_##SUFFIX(x + n * gd[D_SX], gd[D_SX + 1], gd, repp, xt);                     \
        for (int64_t p = 0; p < hw; p++) {                                                  \
            T frac[2];                                                                      \
            for (int64_t t = 0; t < taps; t++)                                              \
                point_##SUFFIX(off, gd, n, t, p / w, p % w, wts + 4 * t, frac,              \
                               cells + 4 * t);                                              \
            for (int64_t grp = 0; grp < gd[D_G]; grp++) {                                   \
                const T *kp = k + n * sk[0] + grp * sk[1] + p;                              \
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
                        acc = acc + kp[t * sk[2]] * s;                                      \
                    }                                                                       \
                    memcpy(ot + p * cs + j, &acc, sizeof acc);                              \
                }                                                                           \
            }                                                                               \
        }                                                                                   \
        from_rows_##SUFFIX(ot, gd, repp, out + n * c * hw);                                 \
    }                                                                                       \
    free(xt);                                                                               \
    free(ot);                                                                               \
    free(wts);                                                                              \
    free(cells);                                                                            \
    return 0;                                                                               \
}                                                                                           \
                                                                                            \
int ddcn_ddc_vjp_##SUFFIX(const T *x, const T *off, const T *k, const T *g, T *gx,          \
                          T *g_off, T *g_kern, const int64_t *gd)                           \
{                                                                                           \
    const int64_t c = gd[D_C], groups = gd[D_G], taps = gd[D_TAPS], w = gd[D_W];            \
    const int64_t hw = gd[D_H] * w, *sk = gd + D_SK;                                        \
    int64_t repp;                                                                           \
    const int64_t cs = row_width_##SUFFIX(gd, &repp);                                       \
    if (gd[D_N] == 0 || hw == 0 || c == 0)                                                  \
        return 0;                                                                           \
    T *xt = calloc((hw + 1) * cs, sizeof(T)), *gt = calloc(hw * cs, sizeof(T));             \
    T *gxt = malloc((hw + 1) * cs * sizeof(T));                                             \
    if (!xt || !gt || !gxt) {                                                               \
        free(xt);                                                                           \
        free(gt);                                                                           \
        free(gxt);                                                                          \
        return -1;                                                                          \
    }                                                                                       \
    for (int64_t n = 0; n < gd[D_N]; n++) {                                                 \
        to_rows_##SUFFIX(x + n * gd[D_SX], gd[D_SX + 1], gd, repp, xt);                     \
        to_rows_##SUFFIX(g + n * gd[D_SG], gd[D_SG + 1], gd, repp, gt);                     \
        memset(gxt, 0, (hw + 1) * cs * sizeof(T));                                          \
        for (int64_t p = 0; p < hw; p++)                                                    \
            for (int64_t t = 0; t < taps; t++) {                                            \
                T wt[4], frac[2], pk[4] = {0, 0, 0, 0};                                     \
                int64_t cell[4];                                                            \
                point_##SUFFIX(off, gd, n, t, p / w, p % w, wt, frac, cell);                \
                for (int64_t grp = 0; grp < groups; grp++) {                                \
                    const T kv = k[n * sk[0] + grp * sk[1] + t * sk[2] + p];                \
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
        from_rows_##SUFFIX(gxt, gd, repp, gx + n * c * hw);                                 \
    }                                                                                       \
    free(xt);                                                                               \
    free(gt);                                                                               \
    free(gxt);                                                                              \
    return 0;                                                                               \
}

DEFINE_DDC(float, __builtin_floorf, f32)
DEFINE_DDC(double, __builtin_floor, f64)
