#include "common/thread_annotations.h"
#include "hyracks/cluster.h"

#include <pthread.h>

#include <algorithm>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace asterix {
namespace hyracks {

using common::Result;
using common::Status;

std::vector<std::shared_ptr<Task>> JobHandle::TasksOfOperator(
    const std::string& op_name) const {
  for (size_t i = 0; i < spec_.operators.size(); ++i) {
    if (spec_.operators[i].name == op_name) return tasks_[i];
  }
  return {};
}

bool JobHandle::Finished() const {
  for (const auto& group : tasks_) {
    for (const auto& task : group) {
      if (!task->finished()) return false;
    }
  }
  return true;
}

bool JobHandle::Wait(int64_t timeout_ms) const {
  common::Stopwatch watch;
  while (!Finished()) {
    if (timeout_ms >= 0 && watch.ElapsedMillis() >= timeout_ms) {
      return false;
    }
    common::SleepMillis(2);
  }
  return true;
}

void JobHandle::FinishSources() {
  for (size_t i = 0; i < spec_.operators.size(); ++i) {
    for (const auto& task : tasks_[i]) {
      if (task->op()->is_source()) task->RequestFinish();
    }
  }
}

void JobHandle::Abort() {
  for (const auto& group : tasks_) {
    for (const auto& task : group) task->Kill();
  }
}

void JobHandle::JoinTasks() {
  for (const auto& group : tasks_) {
    for (const auto& task : group) task->Join();
  }
}

ClusterController::ClusterController(ClusterOptions options)
    : options_(std::move(options)) {}

ClusterController::~ClusterController() {
  Stop();
  // Abort all jobs so task threads exit before nodes are torn down.
  std::map<JobId, std::shared_ptr<JobHandle>> jobs;
  {
    common::MutexLock lock(mutex_);
    jobs = jobs_;
  }
  for (auto& [id, job] : jobs) job->Abort();
  // Join the task threads, not just signal them: Task objects may be
  // kept alive past this destructor by feed-layer references, and their
  // threads read NodeController state owned by nodes_ below.
  for (auto& [id, job] : jobs) job->JoinTasks();
}

NodeController* ClusterController::AddNode(const std::string& node_id) {
  common::MutexLock lock(mutex_);
  auto node = std::make_unique<NodeController>(
      node_id, options_.storage_root + "/" + node_id);
  NodeController* ptr = node.get();
  nodes_.emplace(node_id, std::move(node));
  ptr->StartHeartbeats(options_.heartbeat_period_ms);
  return ptr;
}

NodeController* ClusterController::GetNode(
    const std::string& node_id) const {
  common::MutexLock lock(mutex_);
  auto it = nodes_.find(node_id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeController*> ClusterController::AliveNodes() const {
  common::MutexLock lock(mutex_);
  std::vector<NodeController*> out;
  for (const auto& [id, node] : nodes_) {
    if (node->alive()) out.push_back(node.get());
  }
  return out;
}

std::vector<std::string> ClusterController::AliveNodeIds() const {
  std::vector<std::string> out;
  for (NodeController* node : AliveNodes()) out.push_back(node->id());
  return out;
}

void ClusterController::KillNode(const std::string& node_id) {
  NodeController* node = GetNode(node_id);
  if (node != nullptr) node->Kill();
}

void ClusterController::RestartNode(const std::string& node_id) {
  NodeController* node = GetNode(node_id);
  if (node == nullptr) return;
  node->Restart();
  std::vector<ClusterListener*> listeners;
  {
    common::MutexLock lock(mutex_);
    known_failed_.erase(node_id);
    listeners = listeners_;
  }
  for (ClusterListener* l : listeners) {
    l->OnClusterEvent({ClusterEvent::Kind::kNodeJoined, node_id});
  }
}

void ClusterController::Subscribe(ClusterListener* listener) {
  common::MutexLock lock(mutex_);
  listeners_.push_back(listener);
}

void ClusterController::Unsubscribe(ClusterListener* listener) {
  common::MutexLock lock(mutex_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

Result<std::shared_ptr<JobHandle>> ClusterController::StartJob(
    JobSpec spec) {
  // 1. Resolve placement for each operator.
  std::vector<std::string> alive = AliveNodeIds();
  if (alive.empty()) {
    return Status::Unavailable("no alive nodes to schedule on");
  }
  std::vector<std::vector<std::string>> placements;
  size_t rr = 0;
  for (const OperatorDescriptor& op : spec.operators) {
    std::vector<std::string> locations;
    if (!op.constraint.locations.empty()) {
      for (const std::string& loc : op.constraint.locations) {
        NodeController* node = GetNode(loc);
        if (node == nullptr || !node->alive()) {
          return Status::Unavailable("location constraint on dead node " +
                                     loc + " for operator " + op.name);
        }
        locations.push_back(loc);
      }
    } else {
      for (int i = 0; i < op.constraint.InstanceCount(alive.size()); ++i) {
        locations.push_back(alive[rr++ % alive.size()]);
      }
    }
    placements.push_back(std::move(locations));
  }

  JobId job_id = next_job_id_.fetch_add(1);
  auto handle = std::make_shared<JobHandle>(job_id, spec);
  const JobSpec& jspec = handle->spec();

  // 2. Instantiate tasks.
  handle->tasks_.resize(jspec.operators.size());
  for (size_t i = 0; i < jspec.operators.size(); ++i) {
    const OperatorDescriptor& op = jspec.operators[i];
    int count = static_cast<int>(placements[i].size());
    for (int p = 0; p < count; ++p) {
      NodeController* node = GetNode(placements[i][p]);
      auto task = std::make_shared<Task>(job_id, op.name, p, count, node,
                                         op.factory(p),
                                         jspec.task_queue_capacity);
      node->AdoptTask(task);
      handle->tasks_[i].push_back(std::move(task));
    }
  }

  // 3. Wire connectors and compute expected-producer counts.
  std::vector<int> expected(jspec.operators.size() * 1024, 0);
  auto expected_at = [&](size_t op_index, int partition) -> int& {
    return expected[op_index * 1024 + partition];
  };
  std::vector<std::vector<std::shared_ptr<IFrameWriter>>> writers_per_op(
      jspec.operators.size());
  for (size_t i = 0; i < jspec.operators.size(); ++i) {
    writers_per_op[i].resize(handle->tasks_[i].size());
  }
  for (const JobSpec::Edge& edge : jspec.edges) {
    auto& producers = handle->tasks_[edge.from];
    auto& consumers = handle->tasks_[edge.to];
    int consumer_count = static_cast<int>(consumers.size());
    for (size_t p = 0; p < producers.size(); ++p) {
      auto router = std::make_shared<Router>(
          edge.connector, static_cast<int>(p), consumers);
      auto& slot = writers_per_op[edge.from][p];
      if (slot == nullptr) {
        slot = router;
      } else {
        // Multiple out-edges: broadcast.
        auto broadcast = std::make_shared<BroadcastWriter>(
            std::vector<std::shared_ptr<IFrameWriter>>{slot, router});
        slot = broadcast;
      }
      // Producer p contributes EOS to which consumers?
      if (edge.connector.kind == ConnectorKind::kOneToOne) {
        ++expected_at(edge.to, static_cast<int>(p) % consumer_count);
      } else {
        for (int c = 0; c < consumer_count; ++c) {
          ++expected_at(edge.to, c);
        }
      }
    }
  }

  // 4. Attach outputs (with joint interception) and producer counts.
  for (size_t i = 0; i < jspec.operators.size(); ++i) {
    const OperatorDescriptor& op = jspec.operators[i];
    for (size_t p = 0; p < handle->tasks_[i].size(); ++p) {
      auto& task = handle->tasks_[i][p];
      task->SetExpectedProducers(expected_at(i, static_cast<int>(p)));
      std::shared_ptr<IFrameWriter> out = writers_per_op[i][p];
      if (out == nullptr) out = std::make_shared<NullWriter>();
      if (!op.joint_id.empty() && jspec.output_interceptor) {
        out = jspec.output_interceptor(op.joint_id, out, task.get());
      }
      task->SetOutput(std::move(out));
    }
  }

  // 5. Register and start.
  {
    common::MutexLock lock(mutex_);
    jobs_[job_id] = handle;
  }
  for (auto& group : handle->tasks_) {
    for (auto& task : group) task->Start();
  }

  std::vector<ClusterListener*> listeners;
  {
    common::MutexLock lock(mutex_);
    listeners = listeners_;
  }
  for (ClusterListener* l : listeners) {
    l->OnJobEvent(
        {JobEvent::Kind::kStarted, job_id, jspec.name, ""});
  }
  LOG_MSG(kInfo) << "started job " << job_id << " (" << jspec.name << ")";
  return handle;
}

std::shared_ptr<JobHandle> ClusterController::GetJob(JobId id) const {
  common::MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void ClusterController::ForgetJob(JobId id) {
  common::MutexLock lock(mutex_);
  jobs_.erase(id);
}

void ClusterController::Start() {
  if (running_.exchange(true)) return;
  monitor_thread_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "cluster_mon");
    MonitorLoop();
  });
}

void ClusterController::Stop() {
  if (!running_.exchange(false)) return;
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

void ClusterController::MonitorLoop() {
  while (running_.load()) {
    // Delay action = a slow failure detector (longer gray-failure
    // windows before substitution kicks in).
    ASTERIX_FAILPOINT_HIT("hyracks.cluster.monitor");
    int64_t now = common::NowMicros();
    std::vector<std::string> failed;
    {
      common::MutexLock lock(mutex_);
      for (const auto& [id, node] : nodes_) {
        bool stale = (now - node->last_heartbeat_us()) >
                     options_.heartbeat_timeout_ms * 1000;
        if (stale && !known_failed_[id]) {
          known_failed_[id] = true;
          failed.push_back(id);
        }
      }
    }
    for (const std::string& node_id : failed) {
      HandleNodeFailure(node_id);
    }
    ReapFailedJobs();
    common::SleepMillis(options_.monitor_period_ms);
  }
}

void ClusterController::ReapFailedJobs() {
  // A task that fails on its own (operator error — not a kill and not a
  // node death, which finish with an Aborted status and are the feed
  // recovery protocol's business) makes the rest of the job undeliverable.
  // Finite jobs then drain and finish naturally, but a job with a live
  // source would pump into the dead stage forever: abort it so the job
  // reaches a terminal state its owner can observe.
  std::vector<std::shared_ptr<JobHandle>> jobs;
  {
    common::MutexLock lock(mutex_);
    for (const auto& [id, job] : jobs_) jobs.push_back(job);
  }
  for (const auto& job : jobs) {
    if (job->Finished()) continue;
    bool task_failed = false;
    for (const auto& group : job->tasks()) {
      for (const auto& task : group) {
        if (task->finished() && !task->final_status().ok() &&
            !task->final_status().IsAborted()) {
          task_failed = true;
          break;
        }
      }
      if (task_failed) break;
    }
    if (!task_failed) continue;
    LOG_MSG(kWarn) << "aborting job " << job->id() << " ("
                   << job->spec().name << ") after task failure";
    job->Abort();
  }
}

void ClusterController::HandleNodeFailure(const std::string& node_id) {
  // Delay widens the window between detection and recovery, letting
  // tests race ingestion against the rebuild protocol.
  ASTERIX_FAILPOINT_HIT("hyracks.cluster.handle_failure");
  LOG_MSG(kWarn) << "cluster controller: node " << node_id << " failed";
  std::vector<ClusterListener*> listeners;
  std::vector<std::shared_ptr<JobHandle>> jobs;
  {
    common::MutexLock lock(mutex_);
    listeners = listeners_;
    for (const auto& [id, job] : jobs_) jobs.push_back(job);
  }
  for (ClusterListener* l : listeners) {
    l->OnClusterEvent({ClusterEvent::Kind::kNodeFailed, node_id});
  }
  // Notify / abort jobs with tasks on the failed node.
  for (const auto& job : jobs) {
    bool affected = false;
    for (const auto& group : job->tasks()) {
      for (const auto& task : group) {
        if (task->node_id() == node_id) {
          affected = true;
          break;
        }
      }
      if (affected) break;
    }
    if (!affected) continue;
    for (ClusterListener* l : listeners) {
      l->OnJobEvent({JobEvent::Kind::kNodeLost, job->id(),
                     job->spec().name, node_id});
    }
    if (job->spec().failure_policy == NodeFailurePolicy::kAbortJob) {
      LOG_MSG(kWarn) << "aborting job " << job->id()
                     << " after loss of node " << node_id;
      job->Abort();
    }
  }
}

}  // namespace hyracks
}  // namespace asterix
