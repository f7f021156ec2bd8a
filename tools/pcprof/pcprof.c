/* pcprof: a SIGPROF program-counter sampler, loaded with LD_PRELOAD.

   Every ITIMER_PROF tick (250 Hz of CPU time, all threads together)
   the signal handler records the interrupted program counter and the
   first STACK_WORDS words at the interrupted stack pointer. The stack
   words let the report name the OCaml caller of a noalloc C primitive
   (caml_modify, ...), which runs on the OCaml stack; primitives called
   through caml_c_call run on a separate C stack in OCaml 5, and their
   OCaml caller cannot be found this way.

   At exit the samples go to pcprof.<pid>.out in the working directory:
   a header of four 64-bit words (magic, load bias of the main
   executable, words per sample, sample count), then the samples. Read
   them with report.py.

     gcc -O2 -shared -fPIC -o pcprof.so pcprof.c
     LD_PRELOAD=$PWD/pcprof.so ./main.exe ...

   x86-64 and aarch64 Linux only. */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define HZ 250
#define STACK_WORDS 8
#define WORDS (1 + STACK_WORDS)
#define MAX_SAMPLES (1 << 18)
#define MAGIC 0x31464f5250435050ULL /* "PPCPROF1" */

static uint64_t samples[MAX_SAMPLES][WORDS];
static volatile int count;
static uint64_t bias;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
  ucontext_t *uc = uc_;
  uint64_t pc, sp;
  int i;
  (void)sig;
  (void)info;
#if defined(__x86_64__)
  pc = uc->uc_mcontext.gregs[REG_RIP];
  sp = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
  pc = uc->uc_mcontext.pc;
  sp = uc->uc_mcontext.sp;
#else
#error "pcprof: unsupported architecture"
#endif
  i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (i >= MAX_SAMPLES) return;
  samples[i][0] = pc;
  /* The interrupted thread's stack is mapped and at least a few words
     deep wherever a signal can land in user code. */
  memcpy(&samples[i][1], (void *)sp, STACK_WORDS * sizeof(uint64_t));
}

static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  *(uint64_t *)data = info->dlpi_addr;
  return 1; /* the main executable comes first */
}

__attribute__((constructor)) static void pcprof_start(void) {
  struct sigaction sa;
  struct itimerval it;
  dl_iterate_phdr(first_object, &bias);
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000000 / HZ;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void pcprof_stop(void) {
  struct itimerval off;
  char path[64];
  uint64_t header[4];
  FILE *f;
  int n;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
  snprintf(path, sizeof path, "pcprof.%d.out", (int)getpid());
  f = fopen(path, "wb");
  if (f == NULL) return;
  header[0] = MAGIC;
  header[1] = bias;
  header[2] = WORDS;
  header[3] = (uint64_t)n;
  fwrite(header, sizeof header, 1, f);
  fwrite(samples, sizeof samples[0], (size_t)n, f);
  fclose(f);
  fprintf(stderr, "pcprof: %d samples in %s\n", n, path);
}
