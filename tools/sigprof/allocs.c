/* An LD_PRELOAD allocation-site sampler: one backtrace at every Nth call
 * to malloc, calloc or realloc, written in prof.c's dump format.
 *
 *   gcc -O2 -shared -fPIC -o /tmp/allocs.so tools/sigprof/allocs.c
 *   SIGPROF_OUT=/tmp/allocs.out LD_PRELOAD=/tmp/allocs.so <program> <args>
 *   python3 tools/sigprof/sym.py /tmp/allocs.out --under Progress::run_until
 *
 * N is EVERY (97: a prime, so that a loop allocating a fixed number of
 * times per turn cannot keep landing on one call site); edit the define
 * for another period.
 * Each wrapper forwards to glibc's own entry points (__libc_malloc and
 * friends), so the shim never needs dlsym, which allocates. The counter
 * is shared by all threads; a thread-local flag keeps an allocation made
 * while taking a sample (the unwinder's first use) from sampling itself.
 * The frames of the shim are dropped before they are stored: a sample's
 * innermost frame is the code that called the allocator.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define EVERY 97
#define MAX_SAMPLES 200000
#define MAX_DEPTH 48
/* The sampler and the wrapper that called it. */
#define SHIM_FRAMES 2

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

static void *(*frames)[MAX_DEPTH];
static int *depths;
static unsigned long calls;
static int taken, dropped;
static __thread int inside __attribute__((tls_model("initial-exec")));

static __attribute__((noinline)) void sample(void) {
    void *stack[MAX_DEPTH + SHIM_FRAMES];
    if (!depths || inside || __atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) % EVERY)
        return;
    int s = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (s >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    inside = 1;
    int depth = backtrace(stack, MAX_DEPTH + SHIM_FRAMES) - SHIM_FRAMES;
    inside = 0;
    depth = depth < 0 ? 0 : depth;
    memcpy(frames[s], stack + SHIM_FRAMES, depth * sizeof stack[0]);
    depths[s] = depth;
}

void *malloc(size_t size) {
    sample();
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    sample();
    return __libc_calloc(n, size);
}

void *realloc(void *ptr, size_t size) {
    sample();
    return __libc_realloc(ptr, size);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    /* The first backtrace() loads the unwinder, which allocates: here,
     * before sampling is armed. */
    backtrace(warm, 4);
    frames = __libc_calloc(MAX_SAMPLES, sizeof *frames);
    depths = __libc_calloc(MAX_SAMPLES, sizeof *depths);
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("SIGPROF_OUT");
    int *kept = depths;
    depths = NULL; /* no samples while writing */
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps || !frames || !kept)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "--- %d samples, %d dropped, one per %d allocation calls\n", n, dropped,
            EVERY);
    for (int s = 0; s < n; s++) {
        for (int f = 0; f < kept[s]; f++)
            fprintf(out, "%p ", frames[s][f]);
        fputc('\n', out);
    }
    fclose(out);
}
