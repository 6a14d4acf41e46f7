#include "goal/loggp.hpp"

#include <deque>
#include <string>
#include <unordered_map>

#include "sim/check.hpp"
#include "sim/engine.hpp"

namespace netddt::goal {

std::uint32_t Schedule::calc(sim::Time duration,
                             std::vector<std::uint32_t> deps) {
  Op op;
  op.kind = Op::Kind::kCalc;
  op.duration = duration;
  op.deps = std::move(deps);
  ops_.push_back(std::move(op));
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

std::uint32_t Schedule::send(std::uint64_t bytes, std::uint32_t dst,
                             std::uint32_t tag,
                             std::vector<std::uint32_t> deps) {
  Op op;
  op.kind = Op::Kind::kSend;
  op.bytes = bytes;
  op.peer = dst;
  op.tag = tag;
  op.deps = std::move(deps);
  ops_.push_back(std::move(op));
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

std::uint32_t Schedule::recv(std::uint64_t bytes, std::uint32_t src,
                             std::uint32_t tag,
                             std::vector<std::uint32_t> deps) {
  Op op;
  op.kind = Op::Kind::kRecv;
  op.bytes = bytes;
  op.peer = src;
  op.tag = tag;
  op.deps = std::move(deps);
  ops_.push_back(std::move(op));
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

namespace {

/// Match key for (source rank, tag) at one receiver.
std::uint64_t match_key(std::uint32_t src, std::uint32_t tag) {
  return (static_cast<std::uint64_t>(src) << 32) | tag;
}

struct Sim {
  struct Rank {
    const std::vector<Op>* ops = nullptr;
    std::vector<std::uint32_t> pending_deps;
    std::vector<std::vector<std::uint32_t>> dependents;
    std::deque<std::uint32_t> cpu_queue;  // ready, awaiting the CPU
    // Receives whose message just arrived: they only need `o` on the
    // CPU and take priority over fresh dispatches.
    std::deque<std::uint32_t> resume_queue;
    bool cpu_busy = false;
    sim::Time nic_free = 0;
    std::uint32_t completed = 0;
    sim::Time finish = 0;
    // Matching state: arrived-but-unconsumed messages and posted-but-
    // unmatched receives, FIFO per (src, tag).
    std::unordered_map<std::uint64_t, std::deque<sim::Time>> arrived;
    std::unordered_map<std::uint64_t, std::deque<std::uint32_t>> waiting;
  };

  sim::Engine engine;
  const LogGP* params;
  std::vector<Rank> ranks;
  std::uint64_t messages = 0;

  void complete(std::uint32_t r, std::uint32_t op_idx) {
    Rank& rank = ranks[r];
    ++rank.completed;
    rank.finish = engine.now();
    for (std::uint32_t dep : rank.dependents[op_idx]) {
      NETDDT_CHECK(rank.pending_deps[dep] > 0,
                   "rank " + std::to_string(r) + " op " +
                       std::to_string(op_idx) + " completed and released op " +
                       std::to_string(dep) + ", which had no pending deps");
      if (--rank.pending_deps[dep] == 0) {
        rank.cpu_queue.push_back(dep);
      }
    }
    run_cpu(r);
  }

  void run_cpu(std::uint32_t r) {
    Rank& rank = ranks[r];
    if (rank.cpu_busy) return;
    if (!rank.resume_queue.empty()) {
      const std::uint32_t op_idx = rank.resume_queue.front();
      rank.resume_queue.pop_front();
      rank.cpu_busy = true;
      engine.schedule(params->o, [this, r, op_idx] {
        ranks[r].cpu_busy = false;
        complete(r, op_idx);
      });
      return;
    }
    if (rank.cpu_queue.empty()) return;
    const std::uint32_t op_idx = rank.cpu_queue.front();
    rank.cpu_queue.pop_front();
    const Op& op = (*rank.ops)[op_idx];
    rank.cpu_busy = true;

    switch (op.kind) {
      case Op::Kind::kCalc: {
        engine.schedule(op.duration, [this, r, op_idx] {
          ranks[r].cpu_busy = false;
          complete(r, op_idx);
        });
        break;
      }
      case Op::Kind::kSend: {
        // The CPU stalls until the NIC can accept the next message.
        const sim::Time start =
            std::max(engine.now(), rank.nic_free);
        const sim::Time bytes_time =
            sim::transfer_time(op.bytes, params->G_gbps);
        rank.nic_free = start + params->o + params->g + bytes_time;
        const sim::Time arrival = start + params->o + params->L + bytes_time;
        const std::uint32_t dst = op.peer;
        const std::uint32_t src = r;
        const std::uint32_t tag = op.tag;
        ++messages;
        engine.schedule_at(arrival, [this, dst, src, tag] {
          deliver(dst, src, tag);
        });
        engine.schedule_at(start + params->o, [this, r, op_idx] {
          ranks[r].cpu_busy = false;
          complete(r, op_idx);
        });
        break;
      }
      case Op::Kind::kRecv: {
        const auto key = match_key(op.peer, op.tag);
        auto& queue = rank.arrived[key];
        if (!queue.empty()) {
          queue.pop_front();  // message already here: consume it
          engine.schedule(params->o, [this, r, op_idx] {
            ranks[r].cpu_busy = false;
            complete(r, op_idx);
          });
        } else {
          // Wait off-CPU; deliver() resumes us.
          rank.waiting[key].push_back(op_idx);
          rank.cpu_busy = false;
          run_cpu(r);
        }
        break;
      }
    }
  }

  void deliver(std::uint32_t dst, std::uint32_t src, std::uint32_t tag) {
    Rank& rank = ranks[dst];
    const auto key = match_key(src, tag);
    auto wit = rank.waiting.find(key);
    if (wit != rank.waiting.end() && !wit->second.empty()) {
      const std::uint32_t op_idx = wit->second.front();
      wit->second.pop_front();
      rank.resume_queue.push_back(op_idx);
      run_cpu(dst);
      return;
    }
    rank.arrived[key].push_back(engine.now());
  }
};

}  // namespace

RunResult run_loggp(const std::vector<Schedule>& schedules,
                    const LogGP& params) {
  Sim sim;
  sim.params = &params;
  sim.ranks.resize(schedules.size());

  for (std::size_t r = 0; r < schedules.size(); ++r) {
    auto& rank = sim.ranks[r];
    const auto& ops = schedules[r].ops();
    rank.ops = &ops;
    rank.pending_deps.assign(ops.size(), 0);
    rank.dependents.assign(ops.size(), {});
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
      NETDDT_CHECK(ops[i].kind == Op::Kind::kCalc ||
                       ops[i].peer < schedules.size(),
                   "rank " + std::to_string(r) + " op " + std::to_string(i) +
                       " names peer " + std::to_string(ops[i].peer) + " of " +
                       std::to_string(schedules.size()) + " ranks");
      for (std::uint32_t d : ops[i].deps) {
        NETDDT_CHECK(d < i, "rank " + std::to_string(r) + " op " +
                                std::to_string(i) + " depends on op " +
                                std::to_string(d) +
                                ", not an earlier op");
        rank.dependents[d].push_back(i);
        ++rank.pending_deps[i];
      }
    }
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
      if (rank.pending_deps[i] == 0) rank.cpu_queue.push_back(i);
    }
  }
  for (std::size_t r = 0; r < schedules.size(); ++r) {
    sim.run_cpu(static_cast<std::uint32_t>(r));
  }
  sim.engine.run();

  RunResult result;
  result.messages = sim.messages;
  result.rank_finish.reserve(sim.ranks.size());
  for (std::size_t r = 0; r < sim.ranks.size(); ++r) {
    const auto& rank = sim.ranks[r];
    NETDDT_CHECK(rank.completed == rank.ops->size(),
                 "deadlock: rank " + std::to_string(r) + " completed " +
                     std::to_string(rank.completed) + " of " +
                     std::to_string(rank.ops->size()) +
                     " ops (unmatched receives)");
    result.rank_finish.push_back(rank.finish);
    result.makespan = std::max(result.makespan, rank.finish);
  }
  return result;
}

}  // namespace netddt::goal
