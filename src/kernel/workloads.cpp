#include "kernel/workloads.h"

#include "assembler/builder.h"

namespace camo::kernel::workloads {

using assembler::FunctionBuilder;
using assembler::Label;

namespace {

void svc_call(FunctionBuilder& f, Sys nr) {
  f.movz(8, static_cast<uint16_t>(nr), 0);
  f.svc(0);
}

void sys_exit(FunctionBuilder& f) { svc_call(f, Sys::Exit); }

/// Standard scaffold: program with `_ustart`, a 4 KiB user buffer and a
/// loop register convention (x19 = remaining iterations).
obj::Program scaffold(FunctionBuilder** out) {
  obj::Program p;
  auto& f = p.add_function("_ustart");
  p.add_bss("ubuf", 4096, 16);
  *out = &f;
  return p;
}

/// `iters` back-to-back calls of syscall `nr` with no arguments.
obj::Program syscall_loop(uint64_t iters, Sys nr) {
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label loop = f->make_label();
  f->mov_imm(19, iters);
  f->bind(loop);
  svc_call(*f, nr);
  f->sub_i(19, 19, 1);
  f->cbnz(19, loop);
  sys_exit(*f);
  return p;
}

}  // namespace

obj::Program null_syscall(uint64_t iters) {
  return syscall_loop(iters, Sys::GetPid);
}

namespace {
obj::Program rw_file(uint64_t iters, uint64_t chunk, FileKind kind,
                     bool write) {
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label loop = f->make_label();
  f->mov_imm(0, static_cast<uint64_t>(kind));
  svc_call(*f, Sys::Open);
  f->mov(20, 0);  // fd
  f->mov_imm(19, iters);
  f->bind(loop);
  f->mov(0, 20);
  f->mov_sym(1, "ubuf");
  f->mov_imm(2, chunk);
  svc_call(*f, write ? Sys::Write : Sys::Read);
  f->sub_i(19, 19, 1);
  f->cbnz(19, loop);
  f->mov(0, 20);
  svc_call(*f, Sys::Close);
  sys_exit(*f);
  return p;
}
}  // namespace

obj::Program read_file(uint64_t iters, uint64_t chunk, FileKind kind) {
  return rw_file(iters, chunk, kind, false);
}

obj::Program write_file(uint64_t iters, uint64_t chunk, FileKind kind) {
  return rw_file(iters, chunk, kind, true);
}

obj::Program open_close(uint64_t iters) {
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label loop = f->make_label();
  f->mov_imm(19, iters);
  f->bind(loop);
  f->mov_imm(0, static_cast<uint64_t>(FileKind::Null));
  svc_call(*f, Sys::Open);
  svc_call(*f, Sys::Close);  // fd still in x0
  f->sub_i(19, 19, 1);
  f->cbnz(19, loop);
  sys_exit(*f);
  return p;
}

obj::Program stat_file(uint64_t iters) {
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label loop = f->make_label();
  f->mov_imm(0, static_cast<uint64_t>(FileKind::Ram));
  svc_call(*f, Sys::Open);
  f->mov(20, 0);
  f->mov_imm(19, iters);
  f->bind(loop);
  f->mov(0, 20);
  f->mov_sym(1, "ubuf");
  svc_call(*f, Sys::Stat);
  f->sub_i(19, 19, 1);
  f->cbnz(19, loop);
  sys_exit(*f);
  return p;
}

obj::Program yield_loop(uint64_t iters) {
  return syscall_loop(iters, Sys::Yield);
}

obj::Program queue_work(uint64_t iters) {
  return syscall_loop(iters, Sys::QueueWork);
}

obj::Program call_hook(uint64_t iters) {
  return syscall_loop(iters, Sys::CallHook);
}

obj::Program load_module(uint64_t module_id) {
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label failed = f->make_label();
  const Label done = f->make_label();
  f->mov_imm(0, module_id);
  svc_call(*f, Sys::InitModule);
  f->cbnz(0, failed);
  f->mov_imm(9, 'Y');
  f->b(done);
  f->bind(failed);
  f->mov_imm(9, 'N');
  f->bind(done);
  f->mov_sym(1, "ubuf");
  f->strb(9, 1, 0);
  f->mov_imm(0, 0);  // fd 0: console
  f->mov_imm(2, 1);
  svc_call(*f, Sys::Write);
  sys_exit(*f);
  return p;
}

// ---------------------------------------------------------------------------
// Figure 4 workloads
// ---------------------------------------------------------------------------

obj::Program image_resize(uint64_t rows) {
  // Box-filter over a 256-pixel row buffer, `rows` times; one syscall per 16
  // rows. >99% of cycles are EL0 computation, like the paper's JPEG resize.
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  p.add_bss("uimg", 256 * 8, 16);
  const Label row_loop = f->make_label();
  const Label col_loop = f->make_label();
  const Label no_sys = f->make_label();
  f->mov_imm(19, rows);
  f->bind(row_loop);
  f->mov_sym(20, "uimg");
  f->mov_imm(21, 1);  // col
  f->bind(col_loop);
  f->lsl_i(9, 21, 3);
  f->add(9, 20, 9);     // &img[col]
  f->ldr(10, 9, 0);
  f->sub_i(11, 9, 8);
  f->ldr(11, 11, 0);
  f->ldr(12, 9, 8);
  f->add(10, 10, 11);
  f->add(10, 10, 12);
  f->mov_imm(11, 3);
  f->udiv(10, 10, 11);
  f->add(10, 10, 19);   // keep values moving so rows differ
  f->str(10, 9, 0);
  f->add_i(21, 21, 1);
  f->cmp_i(21, 255);
  f->b_cond(isa::Cond::LO, col_loop);
  // occasional syscall (progress reporting)
  f->and_i(9, 19, 0xF);
  f->cbnz(9, no_sys);
  svc_call(*f, Sys::GetPid);
  f->bind(no_sys);
  f->sub_i(19, 19, 1);
  f->cbnz(19, row_loop);
  sys_exit(*f);
  return p;
}

obj::Program package_build(uint64_t units) {
  // Per "compilation unit": a compute burst plus a batch of file syscalls —
  // roughly balanced user/kernel time like a package build.
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label unit_loop = f->make_label();
  const Label compute = f->make_label();
  f->mov_imm(19, units);
  f->bind(unit_loop);
  // compute burst: 2000 multiply-accumulate steps
  f->mov_imm(9, 2000);
  f->mov_imm(10, 0x1234);
  f->bind(compute);
  f->mov_imm(11, 0x9E37);
  f->mul(10, 10, 11);
  f->lsr_i(11, 10, 13);
  f->eor(10, 10, 11);
  f->sub_i(9, 9, 1);
  f->cbnz(9, compute);
  // file batch: open, write, read, stat, close
  f->mov_imm(0, static_cast<uint64_t>(FileKind::Ram));
  svc_call(*f, Sys::Open);
  f->mov(20, 0);
  f->mov(0, 20);
  f->mov_sym(1, "ubuf");
  f->mov_imm(2, 128);
  svc_call(*f, Sys::Write);
  f->mov(0, 20);
  f->mov_sym(1, "ubuf");
  f->mov_imm(2, 128);
  svc_call(*f, Sys::Read);
  f->mov(0, 20);
  f->mov_sym(1, "ubuf");
  svc_call(*f, Sys::Stat);
  f->mov(0, 20);
  svc_call(*f, Sys::Close);
  f->sub_i(19, 19, 1);
  f->cbnz(19, unit_loop);
  sys_exit(*f);
  return p;
}

obj::Program download(uint64_t chunks) {
  // Tight read loop from the simulated device: almost all time is kernel
  // copy work, like saturating a network download.
  FunctionBuilder* f;
  obj::Program p = scaffold(&f);
  const Label loop = f->make_label();
  const Label sum_loop = f->make_label();
  f->mov_imm(0, static_cast<uint64_t>(FileKind::Ram));
  svc_call(*f, Sys::Open);
  f->mov(20, 0);
  f->mov_imm(19, chunks);
  f->mov_imm(22, 0);  // checksum
  f->bind(loop);
  f->mov(0, 20);
  f->mov_sym(1, "ubuf");
  f->mov_imm(2, 4096);
  svc_call(*f, Sys::Read);
  // light user-side checksum over a 64-byte sample
  f->mov_sym(9, "ubuf");
  f->mov_imm(10, 8);
  f->bind(sum_loop);
  f->ldr(11, 9, 0);
  f->add(22, 22, 11);
  f->add_i(9, 9, 8);
  f->sub_i(10, 10, 1);
  f->cbnz(10, sum_loop);
  f->sub_i(19, 19, 1);
  f->cbnz(19, loop);
  sys_exit(*f);
  return p;
}

}  // namespace camo::kernel::workloads
