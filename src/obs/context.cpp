#include "obs/context.hpp"

#include <stdexcept>

#include "obs/events.hpp"
#include "obs/obs.hpp"

namespace xring::obs {

namespace {

/// The thread's installed context; nullptr = none. Written only by
/// ScopedContext on the owning thread, read by the instrumentation
/// accessors on the same thread — no synchronization needed.
thread_local Context* t_context = nullptr;

}  // namespace

Context::Context() : owned_reg_(std::make_unique<Registry>()) {
  reg_ = owned_reg_.get();
}

Context::Context(Registry* reg) : reg_(reg) {}

Context::~Context() = default;

EventLog& Context::make_event_log() {
  log_ = std::make_unique<EventLog>(*reg_);
  return *log_;
}

Context* current_context() { return t_context; }

bool enabled() { return t_context != nullptr; }

Registry& registry() {
  if (t_context == nullptr) {
    throw std::logic_error(
        "obs::registry() called with no obs::Context installed");
  }
  return t_context->registry();
}

ScopedContext::ScopedContext(Context* ctx) : prev_(t_context) {
  t_context = ctx;
}

ScopedContext::~ScopedContext() { t_context = prev_; }

}  // namespace xring::obs
