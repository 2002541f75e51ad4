#include "common/thread_annotations.h"
#include "hyracks/node.h"

#include <pthread.h>

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"

namespace asterix {
namespace hyracks {

NodeController::NodeController(std::string id, std::string storage_dir)
    : id_(std::move(id)), storage_(id_, std::move(storage_dir)) {
  last_heartbeat_us_.store(common::NowMicros());
}

NodeController::~NodeController() {
  StopHeartbeats();
  Kill();
  // Join task threads before members are destroyed.
  std::vector<std::shared_ptr<Task>> tasks;
  {
    common::MutexLock lock(mutex_);
    tasks = tasks_;
  }
  for (auto& task : tasks) task->Join();
}

void NodeController::SetService(const std::string& name,
                                std::shared_ptr<void> service) {
  common::MutexLock lock(mutex_);
  services_[name] = std::move(service);
}

std::shared_ptr<void> NodeController::GetService(
    const std::string& name) const {
  common::MutexLock lock(mutex_);
  auto it = services_.find(name);
  return it == services_.end() ? nullptr : it->second;
}

std::shared_ptr<void> NodeController::GetOrSetService(
    const std::string& name,
    const std::function<std::shared_ptr<void>()>& factory) {
  common::MutexLock lock(mutex_);
  auto it = services_.find(name);
  if (it != services_.end()) return it->second;
  auto service = factory();
  services_[name] = service;
  return service;
}

void NodeController::AdoptTask(std::shared_ptr<Task> task) {
  common::MutexLock lock(mutex_);
  tasks_.push_back(std::move(task));
}

void NodeController::OnTaskFinished(Task*) {
  // Roster pruning is lazy: finished tasks are dropped on the next kill
  // or restart. (Task objects are cheap once their thread has exited.)
}

std::vector<std::shared_ptr<Task>> NodeController::TasksOfJob(
    JobId job_id) const {
  common::MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Task>> out;
  for (const auto& task : tasks_) {
    if (task->job_id() == job_id) out.push_back(task);
  }
  return out;
}

std::vector<std::shared_ptr<Task>> NodeController::AllTasks() const {
  common::MutexLock lock(mutex_);
  return tasks_;
}

void NodeController::Kill() {
  if (!alive_.exchange(false)) return;
  LOG_MSG(kInfo) << "node " << id_ << " killed";
  std::vector<std::shared_ptr<Task>> tasks;
  {
    common::MutexLock lock(mutex_);
    tasks = tasks_;
  }
  for (auto& task : tasks) task->Kill();
}

void NodeController::Restart() {
  {
    common::MutexLock lock(mutex_);
    tasks_.clear();
  }
  alive_.store(true);
  last_heartbeat_us_.store(common::NowMicros());
  LOG_MSG(kInfo) << "node " << id_ << " restarted";
}

void NodeController::StartHeartbeats(int64_t period_ms) {
  if (heartbeats_on_.exchange(true)) return;
  heartbeat_thread_ = std::thread([this, period_ms] {
    pthread_setname_np(pthread_self(), "heartbeat");
    HeartbeatLoop(period_ms);
  });
}

void NodeController::StopHeartbeats() {
  heartbeats_on_.store(false);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

void NodeController::HeartbeatLoop(int64_t period_ms) {
  while (heartbeats_on_.load()) {
    // A fired failpoint swallows this beat: the node process is healthy
    // but looks dead to the cluster monitor — the classic gray failure.
    // Arm with OnInstance(node_id) to silence one node.
    if (alive_.load() &&
        !ASTERIX_FAILPOINT_TRIGGERED("hyracks.node.heartbeat", id_)) {
      last_heartbeat_us_.store(common::NowMicros());
    }
    common::SleepMillis(period_ms);
  }
}

}  // namespace hyracks
}  // namespace asterix
