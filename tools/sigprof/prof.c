/* An LD_PRELOAD sampling profiler for boxes without perf, valgrind or gdb.
 *
 *   gcc -O2 -shared -fPIC -o /tmp/sigprof.so tools/sigprof/prof.c
 *   SIGPROF_OUT=/tmp/prof.out LD_PRELOAD=/tmp/sigprof.so <program> <args>
 *   python3 tools/sigprof/sym.py /tmp/prof.out --under Progress::run_until
 *
 * ITIMER_PROF counts CPU time and delivers SIGPROF; the handler takes a
 * backtrace() into a buffer allocated before the first signal and does
 * nothing else. At exit the shim writes /proc/self/maps and the raw frames;
 * sym.py does the rest.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define HZ 250
#define MAX_SAMPLES 200000 /* 13 minutes of CPU at 250 Hz */
#define MAX_DEPTH 48

static void *(*frames)[MAX_DEPTH];
static int *depths;
static volatile int taken, dropped;

static void on_sigprof(int sig) {
    (void)sig;
    if (taken == MAX_SAMPLES) {
        dropped++;
        return;
    }
    depths[taken] = backtrace(frames[taken], MAX_DEPTH);
    taken++;
}

static void set_interval_us(long us) {
    struct itimerval every = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    frames = calloc(MAX_SAMPLES, sizeof *frames);
    depths = calloc(MAX_SAMPLES, sizeof *depths);
    if (!frames || !depths)
        return;
    /* The first backtrace() loads the unwinder, which allocates: here, not
     * in the handler. */
    backtrace(warm, 4);
    struct sigaction act = {0};
    act.sa_handler = on_sigprof;
    act.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &act, NULL);
    set_interval_us(1000000 / HZ);
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("SIGPROF_OUT");
    set_interval_us(0);
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps || !frames || !depths)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fprintf(out, "--- %d samples, %d dropped\n", taken, dropped);
    for (int s = 0; s < taken; s++) {
        for (int f = 0; f < depths[s]; f++)
            fprintf(out, "%p ", frames[s][f]);
        fputc('\n', out);
    }
    fclose(out);
}
