// The VE program image of a HAM-Offload application.
//
// Paper Sec. III-C / Fig. 4: the whole application is compiled twice — into a
// VH executable and a VE *library* whose main() is renamed; the host loads
// the library through VEO, communicates the protocol parameters through a
// small C-API, and finally starts ham_main() asynchronously. This header is
// the simulation's equivalent: ham_app_image() is "libham_app.so", exposing
//
//   ham_comm_setup_veo   (comm_area, slots, msg_size, node)
//   ham_comm_setup_vedma (shm_registry, shm_key, slots, msg_size, node, opts)
//   ham_main             ()
//
// and the per-image HAM registry layouts that emulate the differently laid-out
// binaries (GCC on the VH, NCC on the VE, and the "other binary" the
// in-process queue targets run as), each image's registry built once.
#pragma once

#include "ham/handler_registry.hpp"
#include "veos/program_image.hpp"

namespace ham::offload {

/// Symbol names of the HAM-Offload C-API inside the VE library (Fig. 4).
inline constexpr const char* sym_setup_veo = "ham_comm_setup_veo";
inline constexpr const char* sym_setup_vedma = "ham_comm_setup_vedma";
inline constexpr const char* sym_ham_main = "ham_main";
inline constexpr const char* app_image_name = "libham_app.so";

/// The installable VE image (one per process; lazily built).
const aurora::veos::program_image& ham_app_image();

/// Registry layout of the host binary (GCC-built VH executable).
ham::handler_registry::options host_image_options();

/// Registry layout of the VE binary (NCC-built library): different synthetic
/// code base and shuffled layout, so only key translation can bridge them.
ham::handler_registry::options ve_image_options();

/// Registry layout of the image the queue backends' targets (loopback and
/// tcp) run as: a third binary, bridged by key translation like the VE's.
ham::handler_registry::options queue_target_image_options();

/// Each image's translation tables, built once per OS process on first use
/// from the options above. The tables are a property of the image (sorted
/// type names give the same keys in every binary, Sec. III-E), so every
/// simulated process running that image shares them, as the processes of
/// one binary share its tables.
const ham::handler_registry& host_image_registry();
const ham::handler_registry& ve_image_registry();
const ham::handler_registry& queue_target_image_registry();

} // namespace ham::offload
