// Layer probes: host-time microbenchmarks of one layer in isolation, each shaped from the
// traced run of the workload (its concurrency, event density, message size, frame mix and
// live-object count). They call only public entry points of the layer and return the median
// host nanoseconds per operation over a few repetitions.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>

#include "src/fabric/topology.h"
#include "src/wire/message.h"

namespace perfbench {

// sim: `chains` self-rescheduling timers on a bare EventLoop, delays uniform in
// [1, 2 * mean_delay_ns]; ns per fired event.
double probe_event_loop(uint32_t chains, int64_t mean_delay_ns, uint64_t seed);

// fabric: `chains` concurrent Network::send chains of `msg_bytes` data messages between
// random node pairs of a `nodes`-node network on `topology`; ns per message.
double probe_network(const fractos::TopologySpec& topology, uint32_t nodes, uint32_t chains,
                     uint64_t msg_bytes, uint64_t seed);

// wire: encode_envelope + decode_envelope over frames drawn with the given per-type weights;
// ns per frame.
double probe_wire(const std::map<fractos::MsgType, uint64_t>& mix, uint64_t seed);

// cap: ObjectTable create_memory, resolve_memory and revoke (+ erase of the revoked stub)
// against a table holding `live` objects; ns per operation.
double probe_object_table(uint64_t live, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
