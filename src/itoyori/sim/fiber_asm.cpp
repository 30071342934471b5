/// Hand-rolled context switch: the one way fibers switch, on x86-64 and
/// aarch64 ELF targets (anything else stops at the #error below).
///
/// Why not swapcontext: on Linux, every swapcontext performs a sigprocmask
/// *syscall* to save/restore the signal mask, plus saves the full register
/// file. The simulator never changes signal masks from inside fibers, and the
/// SysV/AAPCS ABIs guarantee that a function call clobbers everything except
/// the callee-saved set — so a cooperative switch at a call boundary only
/// needs callee-saved registers, the FP control words, and the stack pointer.
/// That reduces a fiber switch from ~1us of kernel round trip to a dozen
/// moves, which is what makes O(1000)-rank simulations resume-bound on the
/// model instead of on sigprocmask.
///
/// Contract with fiber.cpp (see fiber::prepare_context):
///  * ityr_ctx_switch(save_sp, restore_sp) pushes the save frame on the
///    current stack, stores the resulting sp in *save_sp, switches to
///    restore_sp and pops the same frame layout.
///  * ityr_ctx_jump(restore_sp) is the no-save variant used when the current
///    fiber is dead.
///  * A *prepared* (never-run) frame "returns" into ityr_ctx_trampoline with
///    the fiber pointer in the first saved callee register (rbx / x19); the
///    trampoline realigns the stack and calls ityr_fiber_entry_thunk, which
///    never returns.
///
/// The frame layouts (offsets from the saved sp) are:
///   x86-64:  [0] mxcsr(4) fcw(2) pad(2) | [8] r15 | [16] r14 | [24] r13 |
///            [32] r12 | [40] rbx | [48] rbp | [56] return address
///            (64 bytes)
///   aarch64: [0..72] x19..x28 | [80] x29 | [88] x30 (return address) |
///            [96..152] d8..d15   (160 bytes)
/// No cost reads these sizes: a migration charges a modelled stack
/// (sched::scheduler::modelled_stack_bytes), so the host frame layout never
/// moves a virtual result.
///
/// Exceptions may be thrown and caught *within* a fiber (every fiber entry
/// wraps user code in try/catch) but never unwound across a switch, so the
/// missing CFI at the trampoline frame is never walked by a live unwind.
///
/// AddressSanitizer cannot see these switches on its own; fiber.cpp
/// announces each one around the calls into this file.

#if defined(__x86_64__) && defined(__ELF__)

asm(R"(
        .text

        .globl  ityr_ctx_switch
        .type   ityr_ctx_switch, @function
ityr_ctx_switch:
        .cfi_startproc
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        subq    $8, %rsp
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        retq
        .cfi_endproc
        .size   ityr_ctx_switch, .-ityr_ctx_switch

        .globl  ityr_ctx_jump
        .type   ityr_ctx_jump, @function
ityr_ctx_jump:
        .cfi_startproc
        movq    %rdi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        retq
        .cfi_endproc
        .size   ityr_ctx_jump, .-ityr_ctx_jump

        .globl  ityr_ctx_trampoline
        .type   ityr_ctx_trampoline, @function
ityr_ctx_trampoline:
        movq    %rbx, %rdi
        xorl    %ebp, %ebp
        andq    $-16, %rsp
        callq   ityr_fiber_entry_thunk@PLT
        ud2
        .size   ityr_ctx_trampoline, .-ityr_ctx_trampoline
)");

#elif defined(__aarch64__) && defined(__ELF__)

asm(R"(
        .text

        .globl  ityr_ctx_switch
        .type   ityr_ctx_switch, %function
ityr_ctx_switch:
        sub     sp, sp, #160
        stp     x19, x20, [sp, #0]
        stp     x21, x22, [sp, #16]
        stp     x23, x24, [sp, #32]
        stp     x25, x26, [sp, #48]
        stp     x27, x28, [sp, #64]
        stp     x29, x30, [sp, #80]
        stp     d8,  d9,  [sp, #96]
        stp     d10, d11, [sp, #112]
        stp     d12, d13, [sp, #128]
        stp     d14, d15, [sp, #144]
        mov     x2, sp
        str     x2, [x0]
        mov     sp, x1
        b       .Lityr_ctx_restore
        .size   ityr_ctx_switch, .-ityr_ctx_switch

        .globl  ityr_ctx_jump
        .type   ityr_ctx_jump, %function
ityr_ctx_jump:
        mov     sp, x0
.Lityr_ctx_restore:
        ldp     x19, x20, [sp, #0]
        ldp     x21, x22, [sp, #16]
        ldp     x23, x24, [sp, #32]
        ldp     x25, x26, [sp, #48]
        ldp     x27, x28, [sp, #64]
        ldp     x29, x30, [sp, #80]
        ldp     d8,  d9,  [sp, #96]
        ldp     d10, d11, [sp, #112]
        ldp     d12, d13, [sp, #128]
        ldp     d14, d15, [sp, #144]
        add     sp, sp, #160
        ret
        .size   ityr_ctx_jump, .-ityr_ctx_jump

        .globl  ityr_ctx_trampoline
        .type   ityr_ctx_trampoline, %function
ityr_ctx_trampoline:
        mov     x0, x19
        mov     x29, #0
        mov     x30, #0
        bl      ityr_fiber_entry_thunk
        brk     #0
        .size   ityr_ctx_trampoline, .-ityr_ctx_trampoline
)");

#else
#error "fibers need the hand-written context switch: x86-64 or aarch64 ELF only"
#endif
