#include "veo/veo_api.hpp"

#include <cstring>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace aurora::veo {

namespace {

/// Page-size policy for VE-side allocations: VEOS backs large allocations
/// with huge pages (the VE heap uses 64 MiB pages on the real machine).
sim::page_size ve_page_policy(std::size_t len) {
    if (len >= 64 * MiB) {
        return sim::page_size::huge_64m;
    }
    if (len >= 2 * MiB) {
        return sim::page_size::huge_2m;
    }
    return sim::page_size::ve_64k;
}

const sim::cost_model& costs(const veo_proc_handle* h) {
    return h->sys->plat().costs();
}

} // namespace

// --- veo_args ----------------------------------------------------------------

void veo_args::ensure(int argnum) {
    AURORA_CHECK_MSG(argnum >= 0 && argnum < 32, "bad VEO argument index " << argnum);
    if (regs_.size() <= std::size_t(argnum)) {
        regs_.resize(std::size_t(argnum) + 1, 0);
    }
}

void veo_args::set_u64(int argnum, std::uint64_t value) {
    ensure(argnum);
    regs_[std::size_t(argnum)] = value;
}

void veo_args::set_i64(int argnum, std::int64_t value) {
    set_u64(argnum, static_cast<std::uint64_t>(value));
}

void veo_args::set_u32(int argnum, std::uint32_t value) {
    set_u64(argnum, value);
}

void veo_args::set_i32(int argnum, std::int32_t value) {
    // Sign-extended into the 64-bit register, as the VE ABI does.
    set_u64(argnum, static_cast<std::uint64_t>(std::int64_t{value}));
}

void veo_args::set_double(int argnum, double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    set_u64(argnum, bits);
}

void veo_args::set_float(int argnum, float value) {
    // Floats travel in the upper half of the register on the VE ABI; the
    // simulation keeps them in the low 32 bits for simplicity of retrieval.
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    set_u64(argnum, bits);
}

void veo_args::set_stack(int argnum, veo_args_intent intent, void* buf,
                         std::size_t len) {
    AURORA_CHECK_MSG(buf != nullptr || len == 0, "null stack argument buffer");
    ensure(argnum);
    stack_.push_back({argnum, intent, buf, len});
}

void veo_args::clear() {
    regs_.clear();
    stack_.clear();
}

// --- veo_thr_ctxt --------------------------------------------------------------

std::uint64_t veo_thr_ctxt::call_async(std::uint64_t sym, const veo_args& args) {
    AURORA_CHECK(sim::in_simulation());
    veos::ve_process& vp = *proc->proc;
    const auto& cm = costs(proc);

    veos::ve_command cmd;
    cmd.k = veos::ve_command::kind::call;
    cmd.req_id = vp.next_req_id();
    cmd.sym = sym;
    cmd.regs = args.regs_;

    std::size_t stack_bytes = 0;
    pending p;
    for (const auto& slot : args.stack_) {
        veos::stack_arg sa;
        sa.reg_index = std::size_t(slot.argnum);
        sa.intent = slot.intent == VEO_INTENT_IN      ? veos::stack_intent::in
                    : slot.intent == VEO_INTENT_OUT   ? veos::stack_intent::out
                                                      : veos::stack_intent::inout;
        sa.bytes.resize(slot.len);
        if (slot.intent != VEO_INTENT_OUT && slot.len > 0) {
            std::memcpy(sa.bytes.data(), slot.user_buf, slot.len);
        }
        stack_bytes += slot.len;
        cmd.stack_args.push_back(std::move(sa));
        if (slot.intent != VEO_INTENT_IN) {
            p.out_slots.push_back(slot);
        }
    }

    // Submission cost: argument marshalling + request enqueue through the
    // pseudo-process; stack payloads ride along the request.
    sim::advance(cm.veo_call_submit_ns +
                 sim::transfer_ns(stack_bytes, cm.veo_write_link_gib));
    const std::uint64_t id = cmd.req_id;
    pending_.emplace(id, std::move(p));
    vp.queue().push(std::move(cmd));
    return id;
}

int veo_thr_ctxt::finish_result(std::uint64_t req_id, veos::ve_completion&& c,
                                std::uint64_t* retval) {
    // Copy OUT/INOUT stack blobs back into the user's buffers.
    auto pit = pending_.find(req_id);
    if (pit != pending_.end()) {
        for (const auto& rs : c.returned_stack) {
            for (const auto& slot : pit->second.out_slots) {
                if (std::size_t(slot.argnum) == rs.reg_index && slot.len > 0) {
                    std::memcpy(slot.user_buf, rs.bytes.data(),
                                std::min<std::size_t>(slot.len, rs.bytes.size()));
                }
            }
        }
        pending_.erase(pit);
    }
    if (retval != nullptr) {
        *retval = c.retval;
    }
    return c.exception ? VEO_COMMAND_EXCEPTION : VEO_COMMAND_OK;
}

int veo_thr_ctxt::wait_result(std::uint64_t req_id, std::uint64_t* retval) {
    AURORA_CHECK(sim::in_simulation());
    veos::ve_completion c = proc->proc->wait_completion(req_id);
    // Completion path: VE exception/interrupt -> VEOS -> pseudo process.
    sim::advance(costs(proc).veo_call_completion_ns);
    return finish_result(req_id, std::move(c), retval);
}

int veo_thr_ctxt::peek_result(std::uint64_t req_id, std::uint64_t* retval) {
    AURORA_CHECK(sim::in_simulation());
    veos::ve_completion c;
    if (!proc->proc->try_collect_completion(req_id, c)) {
        return VEO_COMMAND_UNFINISHED;
    }
    sim::advance(costs(proc).veo_call_completion_ns);
    return finish_result(req_id, std::move(c), retval);
}

// --- process & library management ----------------------------------------------

veo_proc_handle* veo_proc_create(veos::veos_system& sys, int venode, int socket) {
    AURORA_CHECK(sim::in_simulation());
    if (venode < 0 || venode >= sys.num_ve()) {
        return nullptr;
    }
    AURORA_CHECK_MSG(socket >= 0 && socket < sys.plat().topology().num_sockets,
                     "bad VH socket " << socket);
    // VE reset, firmware load and VEOS process setup dominate creation.
    sim::advance(sys.plat().costs().veo_proc_create_ns);
    auto* h = new veo_proc_handle;
    h->sys = &sys;
    h->venode = venode;
    h->socket = socket;
    h->proc = &sys.daemon(venode).create_process();
    return h;
}

int veo_proc_destroy(veo_proc_handle* h) {
    AURORA_CHECK(h != nullptr);
    AURORA_CHECK(sim::in_simulation());
    h->sys->daemon(h->venode).destroy_process(*h->proc);
    delete h;
    return 0;
}

std::uint64_t veo_load_library(veo_proc_handle* h, const char* libname) {
    AURORA_CHECK(h != nullptr && libname != nullptr);
    AURORA_CHECK(sim::in_simulation());
    const veos::program_image* img = h->sys->find_image(libname);
    if (img == nullptr) {
        return 0;
    }
    sim::advance(costs(h).veo_load_library_ns);
    return h->proc->load_library(*img);
}

std::uint64_t veo_get_sym(veo_proc_handle* h, std::uint64_t libhandle,
                          const char* symname) {
    AURORA_CHECK(h != nullptr && symname != nullptr);
    AURORA_CHECK(sim::in_simulation());
    sim::advance(costs(h).veo_get_sym_ns);
    return h->proc->resolve_symbol(libhandle, symname);
}

// --- contexts --------------------------------------------------------------------

veo_thr_ctxt* veo_context_open(veo_proc_handle* h) {
    AURORA_CHECK(h != nullptr);
    AURORA_CHECK(sim::in_simulation());
    sim::advance(costs(h).veo_context_open_ns);
    auto ctx = std::make_unique<veo_thr_ctxt>();
    ctx->proc = h;
    h->contexts.push_back(std::move(ctx));
    return h->contexts.back().get();
}

int veo_context_close(veo_thr_ctxt* c) {
    AURORA_CHECK(c != nullptr);
    // Contexts are owned by the proc handle; closing is a logical no-op in
    // the simulation (the real call joins the VE-side worker thread).
    return 0;
}

// --- argument packs ----------------------------------------------------------------

veo_args* veo_args_alloc() {
    return new veo_args;
}

void veo_args_free(veo_args* a) {
    delete a;
}

// --- calls ---------------------------------------------------------------------------

std::uint64_t veo_call_async(veo_thr_ctxt* c, std::uint64_t sym, veo_args* args) {
    AURORA_CHECK(c != nullptr);
    if (sym == 0) {
        return VEO_REQUEST_ID_INVALID;
    }
    static const veo_args empty;
    return c->call_async(sym, args != nullptr ? *args : empty);
}

int veo_call_wait_result(veo_thr_ctxt* c, std::uint64_t req_id, std::uint64_t* retval) {
    AURORA_CHECK(c != nullptr);
    if (req_id == VEO_REQUEST_ID_INVALID) {
        return VEO_COMMAND_ERROR;
    }
    return c->wait_result(req_id, retval);
}

int veo_call_peek_result(veo_thr_ctxt* c, std::uint64_t req_id, std::uint64_t* retval) {
    AURORA_CHECK(c != nullptr);
    if (req_id == VEO_REQUEST_ID_INVALID) {
        return VEO_COMMAND_ERROR;
    }
    return c->peek_result(req_id, retval);
}

int veo_call_sync(veo_thr_ctxt* c, std::uint64_t sym, veo_args* args,
                  std::uint64_t* retval) {
    return veo_call_wait_result(c, veo_call_async(c, sym, args), retval);
}

// --- memory ----------------------------------------------------------------------------

int veo_alloc_mem(veo_proc_handle* h, std::uint64_t* addr, std::size_t len) {
    AURORA_CHECK(h != nullptr && addr != nullptr);
    AURORA_CHECK(sim::in_simulation());
    if (len == 0) {
        return -1;
    }
    sim::advance(costs(h).veo_alloc_mem_ns);
    *addr = h->proc->ve_alloc(len, ve_page_policy(len));
    return 0;
}

int veo_free_mem(veo_proc_handle* h, std::uint64_t addr) {
    AURORA_CHECK(h != nullptr);
    AURORA_CHECK(sim::in_simulation());
    sim::advance(costs(h).veo_alloc_mem_ns);
    h->proc->ve_free(addr);
    return 0;
}

int veo_read_mem(veo_proc_handle* h, void* dst, std::uint64_t src, std::size_t len) {
    AURORA_CHECK(h != nullptr);
    h->sys->daemon(h->venode).dma().read_from_ve(*h->proc, src, dst, len, h->socket);
    return 0;
}

int veo_write_mem(veo_proc_handle* h, std::uint64_t dst, const void* src,
                  std::size_t len) {
    AURORA_CHECK(h != nullptr);
    h->sys->daemon(h->venode).dma().write_to_ve(*h->proc, dst, src, len, h->socket);
    return 0;
}

namespace {
/// Record an already-satisfied request on the context so the standard
/// wait/peek interface applies to async transfers.
std::uint64_t completed_request(veo_thr_ctxt* c) {
    const std::uint64_t id = c->proc->proc->next_req_id();
    c->proc->proc->post_completion(id, veos::ve_completion{});
    return id;
}
} // namespace

std::uint64_t veo_async_read_mem(veo_thr_ctxt* c, void* dst, std::uint64_t src,
                                 std::size_t len) {
    AURORA_CHECK(c != nullptr);
    if (veo_read_mem(c->proc, dst, src, len) != 0) {
        return VEO_REQUEST_ID_INVALID;
    }
    return completed_request(c);
}

std::uint64_t veo_async_write_mem(veo_thr_ctxt* c, std::uint64_t dst,
                                  const void* src, std::size_t len) {
    AURORA_CHECK(c != nullptr);
    if (veo_write_mem(c->proc, dst, src, len) != 0) {
        return VEO_REQUEST_ID_INVALID;
    }
    return completed_request(c);
}

// --- VHcall -------------------------------------------------------------------------------

int veo_register_vh_handler(veo_proc_handle* h, const std::string& name,
                            veos::ve_process::vh_function fn) {
    AURORA_CHECK(h != nullptr);
    h->proc->register_vhcall(name, std::move(fn));
    return 0;
}

} // namespace aurora::veo
