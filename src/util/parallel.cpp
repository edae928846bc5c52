#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "util/parse.hpp"

namespace unisamp {

namespace {

std::atomic<std::size_t> g_thread_override{0};

// Largest worker count UNISAMP_THREADS may request (see trial_threads()).
constexpr std::size_t kMaxEnvThreads = 1024;

}  // namespace

std::size_t env_count(const char* name, std::size_t fallback,
                      std::size_t max) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::string_view text(value);
  text.remove_prefix(std::min(text.find_first_not_of(" \t"), text.size()));
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos)
    return fallback;
  // Digits only, so a failed parse means the value overflowed: that is
  // still a request above the cap, and clamps like one.
  const std::optional<std::uint64_t> parsed = parse_u64(text);
  if (!parsed || *parsed > max) return max;
  return *parsed == 0 ? fallback : static_cast<std::size_t>(*parsed);
}

std::size_t trial_threads() {
  const std::size_t override_count = g_thread_override.load();
  if (override_count > 0) return override_count;
  const std::size_t from_env =
      env_count("UNISAMP_THREADS", 0, kMaxEnvThreads);
  if (from_env > 0) return from_env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

void set_trial_threads(std::size_t count) { g_thread_override.store(count); }

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  std::atomic<std::size_t> next{0};
  // The lowest failing index and its exception: which error surfaces must
  // not depend on which worker happened to throw first.
  std::size_t error_index = count;
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker_loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  // The caller is one of the workers; with one worker no thread spawns.
  const std::size_t workers = std::min(trial_threads(), count);
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(worker_loop);
    } catch (const std::system_error&) {
      break;  // thread exhaustion: degrade to the workers already running
    }
  }
  worker_loop();
  for (std::thread& t : pool) t.join();

  if (error) std::rethrow_exception(error);
}

}  // namespace unisamp
