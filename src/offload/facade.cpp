#include "offload/facade.hpp"

#include "ddt/normalize.hpp"

#include <algorithm>
#include <cassert>

namespace netddt::offload {

DdtEngine::DdtEngine(spin::NicModel& nic)
    : nic_(&nic),
      evictions_(&nic.metrics().counter("offload.evictions")),
      host_fallbacks_(&nic.metrics().counter("offload.host_fallbacks")) {
  nic_->memory().enable_eviction(
      [this](spin::NicMemory::Handle mem, const std::string&) {
        on_evicted(mem);
      });
}

DdtEngine::~DdtEngine() { nic_->memory().enable_eviction({}); }

void DdtEngine::on_evicted(spin::NicMemory::Handle mem) {
  for (auto& p : plans_) {
    if (p->mem == mem) {
      p->mem = spin::NicMemory::kInvalid;
      evictions_->add(1);
      return;
    }
  }
}

DdtEngine::TypeHandle DdtEngine::commit(ddt::TypePtr type,
                                        TypeAttributes attrs) {
  assert(type && type->size() > 0);
  Committed c;
  c.type = ddt::normalize(type);
  c.attrs = attrs;
  // Strategy selection happens at commit time (paper: "the
  // implementation determines the processing strategy during commit").
  c.specializable =
      SpecializedPlan::create(c.type, 1, nic_->cost()) != nullptr;
  const TypeHandle h = next_handle_++;
  types_.emplace(h, std::move(c));
  return h;
}

void DdtEngine::free_type(TypeHandle handle) {
  for (auto it = plans_.begin(); it != plans_.end();) {
    if ((*it)->handle == handle) {
      nic_->memory().free((*it)->mem);
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
  types_.erase(handle);
}

void DdtEngine::post_overflow_buffer(std::int64_t buffer_offset,
                                     std::uint64_t bytes) {
  p4::MatchEntry me;
  me.match_bits = 0;
  me.ignore_bits = ~0ull;  // match any incoming bits
  me.buffer_offset = buffer_offset;
  me.length = bytes;
  me.context = nullptr;  // non-processing path: land packed
  nic_->match_list().append(p4::ListKind::kOverflow, me);
}

std::size_t DdtEngine::cached_plans() const {
  return std::count_if(plans_.begin(), plans_.end(), [](const auto& p) {
    return p->mem != spin::NicMemory::kInvalid;
  });
}

DdtEngine::CachedPlan* DdtEngine::find_plan(TypeHandle handle,
                                            std::uint64_t count) {
  for (auto& p : plans_) {
    if (p->handle == handle && p->count == count) return p.get();
  }
  return nullptr;
}

bool DdtEngine::try_alloc(CachedPlan& plan) {
  if (plan.mem != spin::NicMemory::kInvalid) {
    nic_->memory().touch(plan.mem);  // LRU refresh on reuse
    return true;
  }
  spin::NicMemory::AllocOptions options;
  options.priority = plan.priority;
  options.evictable = true;
  plan.mem = nic_->memory().alloc(plan.nic_bytes, "ddt-plan", options);
  return plan.mem != spin::NicMemory::kInvalid;
}

DdtEngine::PostResult DdtEngine::post_receive(TypeHandle handle,
                                              std::uint64_t count,
                                              std::int64_t buffer_offset,
                                              std::uint64_t length,
                                              std::uint64_t match_bits) {
  auto it = types_.find(handle);
  assert(it != types_.end() && "post_receive on an uncommitted type");
  const Committed& committed = it->second;

  PostResult result{};
  p4::MatchEntry me;
  me.match_bits = match_bits;
  me.buffer_offset = buffer_offset;
  me.length = length;

  if (committed.attrs.allow_offload) {
    CachedPlan* plan = find_plan(handle, count);
    if (plan == nullptr) {
      // Build the plan (host-side work, paid once per (type, count)).
      auto fresh = std::make_unique<CachedPlan>();
      fresh->handle = handle;
      fresh->count = count;
      fresh->priority = committed.attrs.priority;
      if (committed.specializable && committed.attrs.prefer_specialized) {
        fresh->specialized =
            SpecializedPlan::create(committed.type, count, nic_->cost());
        fresh->nic_bytes = fresh->specialized->descriptor_bytes();
      } else {
        GeneralConfig gc;
        gc.kind = StrategyKind::kRwCp;
        gc.hpus = nic_->scheduler().hpus();
        gc.epsilon = committed.attrs.epsilon;
        gc.nic_memory_budget = nic_->memory().capacity() / 2;
        fresh->general = std::make_unique<GeneralPlan>(committed.type, count,
                                                       gc, nic_->cost());
        fresh->nic_bytes = fresh->general->descriptor_bytes();
        result.host_setup = fresh->general->host_setup_time();
      }
      plans_.push_back(std::move(fresh));
      plan = plans_.back().get();
    }
    // Allocate NIC memory; the installed policy evicts colder plans
    // (at most the requester's priority — paper Sec 3.2.6) inside
    // NicMemory and notifies on_evicted() for each victim.
    const std::uint64_t evictions_before = nic_->memory().evictions();
    try_alloc(*plan);
    result.evicted_others = nic_->memory().evictions() > evictions_before;

    if (plan->mem != spin::NicMemory::kInvalid) {
      me.context = nic_->register_context(
          plan->specialized != nullptr ? plan->specialized->context(*nic_)
                                       : plan->general->context(*nic_));
      nic_->match_list().append(p4::ListKind::kPriority, me);
      result.strategy = plan->specialized != nullptr
                            ? StrategyKind::kSpecialized
                            : StrategyKind::kRwCp;
      result.nic_bytes = plan->nic_bytes;
      return result;
    }
  }

  // Fallback: plain RDMA receive + host unpack (also the path for
  // types with allow_offload = false).
  host_fallbacks_->add(1);
  me.context = nullptr;
  nic_->match_list().append(p4::ListKind::kPriority, me);
  result.strategy = StrategyKind::kHostUnpack;
  result.nic_bytes = 0;
  return result;
}

}  // namespace netddt::offload
