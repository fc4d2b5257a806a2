// Unit tests for the scheduler-as-a-service layer (src/service/):
// the wire-protocol parser (the daemon's trust boundary), the bounded
// admission queue with its shed policies, the completion Ticket, and the
// Service itself end to end — completion, deadline and stall watchdogs,
// retry, backpressure, and graceful drain.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/queue.h"
#include "service/request.h"
#include "service/service.h"

namespace rfid::service {
namespace {

using Item = RequestStreamParser::Item;

/// Parses exactly one item out of `text`.
Item parseOne(const std::string& text, RequestSpec* spec, Response* err) {
  std::istringstream in(text);
  RequestStreamParser p(in);
  return p.next(spec, err);
}

// ---- protocol parser: happy paths ----

TEST(ServiceParser, MinimalSpecYieldsCliDefaults) {
  RequestSpec spec;
  Response err;
  ASSERT_EQ(parseOne("request r1\nend\n", &spec, &err), Item::kRequest);
  EXPECT_EQ(spec.id, "r1");
  EXPECT_EQ(spec.algo, "alg2");
  EXPECT_EQ(spec.layout, "uniform");
  EXPECT_EQ(spec.readers, 50);
  EXPECT_EQ(spec.tags, 1200);
  EXPECT_EQ(spec.retries, -1);
  EXPECT_TRUE(spec.checkpoint);
  EXPECT_FALSE(spec.has_faults);
}

TEST(ServiceParser, FullSpecRoundTrips) {
  const std::string text =
      "# a comment, then a blank line\n"
      "\n"
      "request job-7.a_b\n"
      "algo alg1\n"
      "layout clusters\n"
      "readers 12\n"
      "tags 60\n"
      "side 50.5\n"
      "lambda-R 9\n"
      "lambda-r 3\n"
      "seed 42\n"
      "rho 1.5\n"
      "k 3\n"
      "channels 4\n"
      "deadline-ms 2500\n"
      "max-slots 7\n"
      "retries 2\n"
      "checkpoint off\n"
      "hang-ms 10\n"
      "pace-ms 20\n"
      "end\n";
  RequestSpec spec;
  Response err;
  ASSERT_EQ(parseOne(text, &spec, &err), Item::kRequest);
  EXPECT_EQ(spec.id, "job-7.a_b");
  EXPECT_EQ(spec.algo, "alg1");
  EXPECT_EQ(spec.layout, "clusters");
  EXPECT_EQ(spec.readers, 12);
  EXPECT_EQ(spec.tags, 60);
  EXPECT_DOUBLE_EQ(spec.side, 50.5);
  EXPECT_DOUBLE_EQ(spec.lambda_R, 9.0);
  EXPECT_DOUBLE_EQ(spec.lambda_r, 3.0);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.rho, 1.5);
  EXPECT_EQ(spec.k, 3);
  EXPECT_EQ(spec.channels, 4);
  EXPECT_EQ(spec.deadline_ms, 2500);
  EXPECT_EQ(spec.max_slots, 7);
  EXPECT_EQ(spec.retries, 2);
  EXPECT_FALSE(spec.checkpoint);
  EXPECT_EQ(spec.hang_ms, 10);
  EXPECT_EQ(spec.pace_ms, 20);
  EXPECT_EQ(spec.sizeUnits(), 12 * 61);
}

TEST(ServiceParser, InlineFaultBlockParses) {
  const std::string text =
      "request faulty\n"
      "fault-begin\n"
      "seed 9\n"
      "crash 0 1 3\n"
      "miss 0.25\n"
      "fault-end\n"
      "end\n";
  RequestSpec spec;
  Response err;
  ASSERT_EQ(parseOne(text, &spec, &err), Item::kRequest);
  EXPECT_TRUE(spec.has_faults);
  EXPECT_FALSE(spec.faults.empty());
}

TEST(ServiceParser, StreamYieldsRequestsInOrder) {
  std::istringstream in(
      "request a\nend\nrequest b\nreaders 5\nend\nrequest c\nend\n");
  RequestStreamParser p(in);
  RequestSpec spec;
  Response err;
  std::vector<std::string> ids;
  while (p.next(&spec, &err) == Item::kRequest) ids.push_back(spec.id);
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(p.parsed(), 3);
  EXPECT_EQ(p.errors(), 0);
}

// ---- protocol parser: fail-closed paths ----

TEST(ServiceParser, RejectsInvalidRequestIds) {
  RequestSpec spec;
  Response err;
  ASSERT_EQ(parseOne("request bad id\nend\n", &spec, &err), Item::kError);
  EXPECT_EQ(err.status, Status::kRejected);
  EXPECT_EQ(err.code, Code::kParse);

  ASSERT_EQ(parseOne("request\nend\n", &spec, &err), Item::kError);
  EXPECT_EQ(err.code, Code::kParse);

  const std::string long_id(kMaxIdLen + 1, 'x');
  ASSERT_EQ(parseOne("request " + long_id + "\nend\n", &spec, &err),
            Item::kError);
  EXPECT_EQ(err.code, Code::kParse);
}

TEST(ServiceParser, RejectsUnknownAndOutOfRangeValues) {
  RequestSpec spec;
  Response err;
  const struct {
    const char* line;
  } cases[] = {
      {"algo quantum"},        {"layout donut"},
      {"readers 0"},           {"readers 20001"},
      {"tags -1"},             {"tags 500001"},
      {"side 0"},              {"side nan"},
      {"rho 1.0"},             {"rho 17"},
      {"k 1"},                 {"channels 65"},
      {"seed -3"},             {"deadline-ms -1"},
      {"retries 11"},          {"checkpoint maybe"},
      {"hang-ms 600001"},      {"pace-ms -5"},
      {"bogus-key 1"},         {"readers 1e3"},
  };
  for (const auto& c : cases) {
    const std::string text =
        std::string("request r\n") + c.line + "\nend\n";
    ASSERT_EQ(parseOne(text, &spec, &err), Item::kError) << c.line;
    EXPECT_EQ(err.status, Status::kRejected) << c.line;
    EXPECT_EQ(err.code, Code::kBadValue) << c.line;
    EXPECT_EQ(err.id, "r") << c.line;  // id survives into the rejection
    EXPECT_FALSE(err.detail.empty()) << c.line;
  }
}

TEST(ServiceParser, ResyncsToNextRequestAfterAnError) {
  // One hostile request must not poison the request behind it.
  std::istringstream in(
      "request bad\nreaders zero\nextra junk\nend\nrequest good\nend\n");
  RequestStreamParser p(in);
  RequestSpec spec;
  Response err;
  ASSERT_EQ(p.next(&spec, &err), Item::kError);
  EXPECT_EQ(err.code, Code::kBadValue);
  ASSERT_EQ(p.next(&spec, &err), Item::kRequest);
  EXPECT_EQ(spec.id, "good");
  ASSERT_EQ(p.next(&spec, &err), Item::kEof);
}

TEST(ServiceParser, TruncatedStreamFailsClosed) {
  RequestSpec spec;
  Response err;
  ASSERT_EQ(parseOne("request r\nreaders 5\n", &spec, &err), Item::kError);
  EXPECT_EQ(err.code, Code::kTruncated);
  ASSERT_EQ(parseOne("request r\nfault-begin\nmiss 0.5\n", &spec, &err),
            Item::kError);
  EXPECT_EQ(err.code, Code::kTruncated);
}

TEST(ServiceParser, EnforcesSizeLimits) {
  RequestSpec spec;
  Response err;

  // A line over kMaxLineLen is consumed but never stored.
  const std::string huge(kMaxLineLen + 10, 'a');
  ASSERT_EQ(parseOne("request r\n" + huge + "\nend\n", &spec, &err),
            Item::kError);
  EXPECT_EQ(err.code, Code::kTooLarge);

  // Too many body lines (comments count — the limit is on consumed input).
  std::string many = "request r\n";
  for (int i = 0; i < kMaxRequestLines + 1; ++i) many += "# filler\n";
  many += "end\n";
  ASSERT_EQ(parseOne(many, &spec, &err), Item::kError);
  EXPECT_EQ(err.code, Code::kTooLarge);

  // Oversized fault block.
  std::string fb = "request r\nfault-begin\n";
  for (int i = 0; i < kMaxFaultLines + 1; ++i) fb += "miss 0.1\n";
  fb += "fault-end\nend\n";
  ASSERT_EQ(parseOne(fb, &spec, &err), Item::kError);
  EXPECT_EQ(err.code, Code::kTooLarge);
}

TEST(ServiceParser, NestedRequestIsAParseError) {
  RequestSpec spec;
  Response err;
  ASSERT_EQ(parseOne("request a\nrequest b\nend\n", &spec, &err),
            Item::kError);
  EXPECT_EQ(err.code, Code::kParse);
}

TEST(ServiceParser, RetryableCoversExactlyTransientCodes) {
  EXPECT_TRUE(retryable(Code::kStalled));
  EXPECT_TRUE(retryable(Code::kIntegrity));
  EXPECT_FALSE(retryable(Code::kNone));
  EXPECT_FALSE(retryable(Code::kParse));
  EXPECT_FALSE(retryable(Code::kQueueFull));
  EXPECT_FALSE(retryable(Code::kDeadline));
  EXPECT_FALSE(retryable(Code::kDraining));
  EXPECT_FALSE(retryable(Code::kInternal));
}

TEST(ServiceParser, ResponseJsonIsDeterministicAndEscaped) {
  Response r;
  r.id = "job\"1";
  r.status = Status::kCancelled;
  r.code = Code::kStalled;
  r.detail = "line1\nline2";
  r.attempts = 2;
  r.slots = 5;
  r.tags_read = 40;
  r.resumable = true;
  r.queue_wait_ms = 1.5;
  r.latency_ms = 9.25;
  std::ostringstream os;
  r.writeJson(os, /*mask_wall=*/false);
  EXPECT_EQ(os.str(),
            "{\"id\":\"job\\\"1\",\"status\":\"cancelled\","
            "\"code\":\"stalled\",\"detail\":\"line1\\nline2\","
            "\"attempts\":2,\"slots\":5,\"tags_read\":40,"
            "\"completed\":false,\"resumable\":true,\"retry_after_ms\":0,"
            "\"queue_wait_ms\":1.5,\"latency_ms\":9.25}");

  std::ostringstream masked;
  r.writeJson(masked, /*mask_wall=*/true);
  EXPECT_NE(masked.str().find("\"queue_wait_ms\":0,\"latency_ms\":0"),
            std::string::npos);
}

// ---- ticket ----

TEST(ServiceTicket, CompleteIsIdempotentFirstWriterWins) {
  Ticket t;
  EXPECT_FALSE(t.done());
  Response first;
  first.id = "x";
  first.status = Status::kOk;
  t.complete(first);
  Response second;
  second.id = "x";
  second.status = Status::kCancelled;  // a drain bounce racing the worker
  t.complete(second);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.wait().status, Status::kOk);
}

// ---- admission queue ----

Job makeJob(const std::string& id, int readers = 10, int tags = 100) {
  Job j;
  j.spec.id = id;
  j.spec.readers = readers;
  j.spec.tags = tags;
  j.ticket = std::make_shared<Ticket>();
  j.submitted = std::chrono::steady_clock::now();
  return j;
}

TEST(ServiceQueue, RejectNewestBouncesTheIncomingRequest) {
  AdmissionQueue q(2, ShedPolicy::kRejectNewest);
  EXPECT_TRUE(q.push(makeJob("a"), 0.0).admitted());
  EXPECT_TRUE(q.push(makeJob("b"), 0.0).admitted());
  const Admit third = q.push(makeJob("c"), 25.0);
  EXPECT_FALSE(third.admitted());
  EXPECT_EQ(third.code, Code::kQueueFull);
  EXPECT_GE(third.retry_after_ms, 1);
  EXPECT_TRUE(third.evicted.empty());
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ServiceQueue, RejectLargestEvictsTheLargestQueuedJob) {
  AdmissionQueue q(2, ShedPolicy::kRejectLargest);
  EXPECT_TRUE(q.push(makeJob("big", 100, 10000), 0.0).admitted());
  EXPECT_TRUE(q.push(makeJob("small", 5, 20), 0.0).admitted());
  // Incoming medium job: "big" is the largest of {queued ∪ incoming}, so it
  // is evicted and handed back; the incoming job takes its place.
  const Admit a = q.push(makeJob("medium", 20, 400), 0.0);
  EXPECT_TRUE(a.admitted());
  ASSERT_EQ(a.evicted.size(), 1u);
  EXPECT_EQ(a.evicted[0].spec.id, "big");
  EXPECT_EQ(q.depth(), 2u);

  // Incoming job that is itself the largest bounces with kShed.
  const Admit b = q.push(makeJob("giant", 1000, 100000), 0.0);
  EXPECT_FALSE(b.admitted());
  EXPECT_EQ(b.code, Code::kShed);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ServiceQueue, DeadlineAwareAdmissionBouncesUnmeetableRequests) {
  AdmissionQueue q(8, ShedPolicy::kRejectNewest);
  Job j = makeJob("late");
  j.has_deadline = true;
  j.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  const Admit a = q.push(std::move(j), /*est_wait_ms=*/500.0);
  EXPECT_FALSE(a.admitted());
  EXPECT_EQ(a.code, Code::kDeadlineUnmeetable);
  EXPECT_GE(a.retry_after_ms, 1);

  // A comfortable deadline sails through the same estimate.
  Job ok = makeJob("fine");
  ok.has_deadline = true;
  ok.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  EXPECT_TRUE(q.push(std::move(ok), 500.0).admitted());
}

TEST(ServiceQueue, CloseGatesAdmissionAndDrainsPending) {
  AdmissionQueue q(4, ShedPolicy::kRejectNewest);
  EXPECT_TRUE(q.push(makeJob("a"), 0.0).admitted());
  EXPECT_TRUE(q.push(makeJob("b"), 0.0).admitted());
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.push(makeJob("c"), 0.0).code, Code::kDraining);
  const std::vector<Job> bounced = q.drainPending();
  EXPECT_EQ(bounced.size(), 2u);
  EXPECT_EQ(q.depth(), 0u);
  Job out;
  EXPECT_FALSE(q.pop(&out));  // closed + empty → worker shutdown signal
}

// ---- service end to end ----

/// A deployment small enough that one request solves in a few ms.
RequestSpec tinySpec(const std::string& id) {
  RequestSpec spec;
  spec.id = id;
  spec.readers = 8;
  spec.tags = 40;
  spec.side = 40.0;
  spec.seed = 3;
  spec.checkpoint = false;
  return spec;
}

TEST(ServiceEndToEnd, SubmitRunsToValidCompletion) {
  obs::MetricsRegistry m;
  ServiceOptions opt;
  opt.workers = 2;
  opt.metrics = &m;
  Service svc(opt);
  svc.start();

  std::vector<std::shared_ptr<Ticket>> tickets;
  for (int i = 0; i < 4; ++i) {
    Response reject;
    auto t = svc.submit(tinySpec("t" + std::to_string(i)), &reject);
    ASSERT_NE(t, nullptr) << codeName(reject.code);
    tickets.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Response r = tickets[i]->wait();
    EXPECT_EQ(r.id, "t" + std::to_string(i));
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.code, Code::kNone);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_GT(r.slots, 0);
    EXPECT_GT(r.tags_read, 0);
  }
  const DrainReport rep = svc.drain(1000);
  EXPECT_TRUE(rep.clean());
}

TEST(ServiceEndToEnd, MultiChannelRequestCompletesThePaperDefault) {
  // An algo mc request's proposals carry their channels, so the service's
  // MCS run referees them in the channel model: the paper-default
  // deployment (seed 1) is covered in the slots rfidsched_cli prints.
  ServiceOptions opt;
  opt.workers = 1;
  Service svc(opt);
  svc.start();
  RequestSpec spec;
  spec.id = "mc";
  spec.algo = "mc";
  spec.checkpoint = false;
  Response reject;
  auto t = svc.submit(std::move(spec), &reject);
  ASSERT_NE(t, nullptr) << codeName(reject.code);
  const Response r = t->wait();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.slots, 3);
  EXPECT_EQ(r.tags_read, 315);
  EXPECT_TRUE(svc.drain(1000).clean());
}

TEST(ServiceEndToEnd, SpecBuiltInCodeWithABadValueFailsClosed) {
  // The request parser rejects both values; a spec built in code reaches
  // the scheduler factory with them and must be answered, not run.
  ServiceOptions opt;
  opt.workers = 1;
  Service svc(opt);
  svc.start();
  RequestSpec no_channels = tinySpec("mc0");
  no_channels.algo = "mc";
  no_channels.channels = 0;
  RequestSpec bogus = tinySpec("bogus");
  bogus.algo = "bogus";
  std::vector<std::shared_ptr<Ticket>> tickets;
  for (RequestSpec* spec : {&no_channels, &bogus}) {
    Response reject;
    auto t = svc.submit(std::move(*spec), &reject);
    ASSERT_NE(t, nullptr) << codeName(reject.code);
    tickets.push_back(std::move(t));
  }
  const Response mc0 = tickets[0]->wait();
  EXPECT_EQ(mc0.status, Status::kFailed);
  EXPECT_EQ(mc0.code, Code::kBadValue);
  EXPECT_NE(mc0.detail.find("channels"), std::string::npos) << mc0.detail;
  const Response bad = tickets[1]->wait();
  EXPECT_EQ(bad.status, Status::kFailed);
  EXPECT_EQ(bad.code, Code::kBadValue);
  EXPECT_NE(bad.detail.find("bogus"), std::string::npos) << bad.detail;
  EXPECT_TRUE(svc.drain(1000).clean());
}

TEST(ServiceEndToEnd, MaxSlotsBoundsTheRunAndStaysOk) {
  ServiceOptions opt;
  opt.workers = 1;
  Service svc(opt);
  svc.start();
  RequestSpec spec = tinySpec("capped");
  spec.max_slots = 1;
  Response reject;
  auto t = svc.submit(std::move(spec), &reject);
  ASSERT_NE(t, nullptr);
  const Response r = t->wait();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.slots, 1);
  EXPECT_FALSE(r.completed);  // budget-bounded, not finished
  EXPECT_TRUE(svc.drain(1000).clean());
}

TEST(ServiceEndToEnd, WatchdogCancelsStallThenRetrySucceeds) {
  obs::MetricsRegistry m;
  ServiceOptions opt;
  opt.workers = 1;
  opt.watchdog_period_ms = 2;
  opt.stall_window_ms = 50;
  opt.default_retries = 1;
  opt.backoff_base_ms = 1;
  opt.backoff_cap_ms = 5;
  opt.metrics = &m;
  Service svc(opt);
  svc.start();

  // hang-ms wedges the first attempt without advancing the heartbeat; the
  // watchdog must stall-cancel it well before the 10 s hang, and the retry
  // (hang applies to attempt 1 only) must complete normally.
  RequestSpec spec = tinySpec("hungry");
  spec.hang_ms = 10000;
  Response reject;
  auto t = svc.submit(std::move(spec), &reject);
  ASSERT_NE(t, nullptr);
  const Response r = t->wait();
  EXPECT_EQ(r.status, Status::kOk) << r.detail;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(svc.drain(1000).clean());
}

TEST(ServiceEndToEnd, StallWithoutRetryBudgetReportsStalled) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.watchdog_period_ms = 2;
  opt.stall_window_ms = 50;
  opt.default_retries = 0;
  Service svc(opt);
  svc.start();
  RequestSpec spec = tinySpec("doomed");
  spec.hang_ms = 10000;
  Response reject;
  auto t = svc.submit(std::move(spec), &reject);
  ASSERT_NE(t, nullptr);
  const Response r = t->wait();
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_EQ(r.code, Code::kStalled);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(svc.drain(1000).clean());
}

TEST(ServiceEndToEnd, DeadlineCancelsARunThatPacesPastIt) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.watchdog_period_ms = 2;
  opt.stall_window_ms = 0;  // deadline enforcement only
  opt.default_retries = 1;  // deadline is terminal — must NOT retry
  Service svc(opt);
  svc.start();
  RequestSpec spec = tinySpec("late");
  spec.pace_ms = 50;      // slow but live: heartbeat advances every slot
  spec.deadline_ms = 60;  // expires mid-run
  Response reject;
  auto t = svc.submit(std::move(spec), &reject);
  ASSERT_NE(t, nullptr);
  const Response r = t->wait();
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_EQ(r.code, Code::kDeadline);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(svc.drain(1000).clean());
}

TEST(ServiceEndToEnd, FullQueueRejectsWithRetryAfterHint) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  Service svc(opt);
  svc.start();

  // Occupy the worker with a paced request, fill the queue behind it, then
  // overflow: the overflow must resolve immediately as a structured
  // rejection, never a block.
  RequestSpec pacer = tinySpec("pacer");
  pacer.pace_ms = 100;
  Response reject;
  auto t0 = svc.submit(std::move(pacer), &reject);
  ASSERT_NE(t0, nullptr);
  // Wait until the pacer is actually in flight so the queue is free.
  for (int i = 0; i < 500 && svc.inflightCount() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(svc.inflightCount(), 0);

  auto t1 = svc.submit(tinySpec("queued"), &reject);
  ASSERT_NE(t1, nullptr);
  auto t2 = svc.submit(tinySpec("bounced"), &reject);
  EXPECT_EQ(t2, nullptr);
  EXPECT_EQ(reject.status, Status::kRejected);
  EXPECT_EQ(reject.code, Code::kQueueFull);
  EXPECT_GE(reject.retry_after_ms, 1);

  const DrainReport rep = svc.drain(5000);
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(t0->done());
  EXPECT_TRUE(t1->done());
}

TEST(ServiceEndToEnd, DrainBouncesQueuedWorkAndResolvesEveryTicket) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 8;
  Service svc(opt);
  svc.start();

  RequestSpec pacer = tinySpec("inflight");
  pacer.pace_ms = 50;
  Response reject;
  auto t0 = svc.submit(std::move(pacer), &reject);
  ASSERT_NE(t0, nullptr);
  for (int i = 0; i < 500 && svc.inflightCount() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::shared_ptr<Ticket>> queued;
  for (int i = 0; i < 3; ++i) {
    auto t = svc.submit(tinySpec("q" + std::to_string(i)), &reject);
    ASSERT_NE(t, nullptr);
    queued.push_back(std::move(t));
  }

  const DrainReport rep = svc.drain(/*drain_deadline_ms=*/30);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.bounced, 3);
  EXPECT_TRUE(svc.draining());

  // Every ticket resolves: queued work bounces with kDraining, the
  // in-flight request either finished inside the window or was cancelled
  // by the drain deadline.
  for (auto& t : queued) {
    const Response r = t->wait();
    EXPECT_EQ(r.status, Status::kRejected);
    EXPECT_EQ(r.code, Code::kDraining);
  }
  const Response r0 = t0->wait();
  EXPECT_TRUE((r0.status == Status::kOk && r0.completed) ||
              (r0.status == Status::kCancelled && r0.code == Code::kDraining))
      << statusName(r0.status) << "/" << codeName(r0.code);

  // Submitting after drain is a structured kDraining rejection.
  EXPECT_EQ(svc.submit(tinySpec("late"), &reject), nullptr);
  EXPECT_EQ(reject.code, Code::kDraining);
}

TEST(ServiceEndToEnd, AlreadyExpiredDeadlineNeverRuns) {
  ServiceOptions opt;
  opt.workers = 1;
  Service svc(opt);
  svc.start();
  RequestSpec spec = tinySpec("expired");
  spec.deadline_ms = 1;
  spec.pace_ms = 30;  // make sure the clock passes the deadline in-queue
  Response reject;
  auto t = svc.submit(std::move(spec), &reject);
  if (t != nullptr) {
    const Response r = t->wait();
    // Raced past admission: either cancelled by the deadline watchdog or
    // (very fast machine) completed — never retried, never hung.
    EXPECT_LE(r.attempts, 1);
  } else {
    EXPECT_EQ(reject.code, Code::kDeadlineUnmeetable);
  }
  EXPECT_TRUE(svc.drain(1000).clean());
}

}  // namespace
}  // namespace rfid::service
