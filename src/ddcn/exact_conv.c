/* The exact-order contraction of ddcn's fixed-weight convolutions.

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
