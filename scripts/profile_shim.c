/* Sampling profiler preloaded into the profiled process by scripts/profile.sh.
 *
 * A CLOCK_MONOTONIC POSIX timer raises SIGPROF every 100 us (setitimer's
 * profiling timer can tick as coarsely as the kernel's 4 ms). The handler
 * records the interrupted pc and the return addresses of the frame-pointer
 * chain, staying within [rsp, rsp + 8 MiB), as one record: a count, then
 * that many addresses, native-endian u64. Records go to $CLIO_PROFILE_OUT;
 * at exit the executable segments of every loaded object go to
 * $CLIO_PROFILE_OUT.maps as "bias start end path" lines for symbolization.
 * x86-64 Linux only. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_NS 100000
#define MAX_FRAMES 64
#define STACK_WINDOW (8ul << 20)

static int out = -1;
static char maps_path[4096];
static timer_t timer;
static uint64_t buf[1 << 14];
static size_t used;

static void flush(void) {
    const char *p = (const char *)buf;
    size_t left = used * sizeof buf[0];
    while (left > 0) {
        ssize_t n = write(out, p, left);
        if (n <= 0) break;
        p += n, left -= (size_t)n;
    }
    used = 0;
}

static void on_sample(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    int saved = errno;
    const greg_t *r = ((ucontext_t *)context)->uc_mcontext.gregs;
    uint64_t rsp = (uint64_t)r[REG_RSP], fp = (uint64_t)r[REG_RBP];
    if (used + MAX_FRAMES + 1 > sizeof buf / sizeof buf[0]) flush();
    uint64_t *rec = &buf[used], n = 0;
    rec[++n] = (uint64_t)r[REG_RIP];
    while (n < MAX_FRAMES && fp % 8 == 0 && fp >= rsp && fp + 16 <= rsp + STACK_WINDOW) {
        const uint64_t *frame = (const uint64_t *)fp;
        rec[++n] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    rec[0] = n;
    used += n + 1;
    errno = saved;
}

static int write_object(struct dl_phdr_info *info, size_t size, void *file) {
    (void)size;
    char exe[4096];
    const char *name = info->dlpi_name;
    if (name[0] == '\0') {
        ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
        exe[len > 0 ? len : 0] = '\0';
        name = exe;
    }
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
        uint64_t start = info->dlpi_addr + ph->p_vaddr;
        fprintf(file, "%lx %lx %lx %s\n", (unsigned long)info->dlpi_addr, (unsigned long)start,
                (unsigned long)(start + ph->p_memsz), name);
    }
    return 0;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("CLIO_PROFILE_OUT");
    if (!path || (out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644)) < 0) return;
    snprintf(maps_path, sizeof maps_path, "%s.maps", path);
    struct sigaction sa = {.sa_sigaction = on_sample, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, PERIOD_NS}, {0, PERIOD_NS}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (out < 0) return;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    flush();
    close(out);
    FILE *maps = fopen(maps_path, "w");
    if (maps) dl_iterate_phdr(write_object, maps), fclose(maps);
}
