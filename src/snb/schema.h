#ifndef GRAPHBENCH_SNB_SCHEMA_H_
#define GRAPHBENCH_SNB_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace graphbench {
namespace snb {

/// Entity structs mirroring the LDBC SNB schema (the subset the
/// interactive workload touches). Dates are epoch-milliseconds from the
/// simulation origin.

struct Person {
  int64_t id = 0;
  std::string first_name;
  std::string last_name;
  std::string gender;
  int64_t birthday = 0;
  int64_t creation_date = 0;
  std::string browser;
  std::string location_ip;
  int64_t city_id = 0;
};

/// Undirected friendship, stored once with person1 < person2.
struct Knows {
  int64_t person1 = 0;
  int64_t person2 = 0;
  int64_t creation_date = 0;
};

struct Forum {
  int64_t id = 0;
  std::string title;
  int64_t creation_date = 0;
  int64_t moderator = 0;  // person id
};

struct ForumMember {
  int64_t forum = 0;
  int64_t person = 0;
  int64_t join_date = 0;
};

struct Post {
  int64_t id = 0;
  std::string content;
  int64_t creation_date = 0;
  int64_t creator = 0;  // person id
  int64_t forum = 0;
  std::string browser;
};

struct Comment {
  int64_t id = 0;
  std::string content;
  int64_t creation_date = 0;
  int64_t creator = 0;
  int64_t reply_of_post = -1;     // exactly one of these is set
  int64_t reply_of_comment = -1;
};

struct Like {
  int64_t person = 0;
  int64_t post = -1;     // exactly one of post/comment is set
  int64_t comment = -1;
  int64_t creation_date = 0;
};

struct Tag {
  int64_t id = 0;
  std::string name;
};

struct PostTag {
  int64_t post = 0;
  int64_t tag = 0;
};

struct Place {
  int64_t id = 0;
  std::string name;
};

struct Organisation {
  int64_t id = 0;
  std::string name;
  std::string type;  // "university" | "company"
};

struct StudyAt {
  int64_t person = 0;
  int64_t organisation = 0;
  int64_t year = 0;
};

struct WorkAt {
  int64_t person = 0;
  int64_t organisation = 0;
  int64_t year = 0;
};

/// One operation of the update stream (the SNB interactive update types
/// U1-U8). `dependency_date` is the latest creation date among referenced
/// entities: the op may only execute once everything it references exists
/// (the driver's dependency-tracking contract, §2.2).
struct UpdateOp {
  enum class Kind : uint8_t {
    kAddPerson = 1,        // U1
    kAddLikePost = 2,      // U2
    kAddLikeComment = 3,   // U3
    kAddForum = 4,         // U4
    kAddForumMember = 5,   // U5
    kAddPost = 6,          // U6
    kAddComment = 7,       // U7
    kAddFriendship = 8,    // U8
    // Extension beyond the spec's U1-U8 adds: unfriending, so every
    // engine's adjacency and shortest-path search face deletes.
    kRemoveFriendship = 9,
  };

  Kind kind = Kind::kAddPerson;
  int64_t scheduled_date = 0;   // simulation time of the event
  int64_t dependency_date = 0;

  // Exactly the member matching `kind` is meaningful.
  Person person;
  Like like;
  Forum forum;
  ForumMember member;
  Post post;
  Comment comment;
  Knows knows;
};

/// A generated social network: the static snapshot loaded into each SUT
/// plus the timestamp-ordered update stream played through Kafka.
struct Dataset {
  std::vector<Person> persons;
  std::vector<Knows> knows;
  std::vector<Forum> forums;
  std::vector<ForumMember> members;
  std::vector<Post> posts;
  std::vector<Comment> comments;
  std::vector<Like> likes;
  std::vector<Tag> tags;
  std::vector<PostTag> post_tags;
  std::vector<Place> places;
  std::vector<Organisation> organisations;
  std::vector<StudyAt> study_at;
  std::vector<WorkAt> work_at;

  std::vector<UpdateOp> update_stream;  // sorted by scheduled_date

  uint64_t VertexCount() const {
    return persons.size() + forums.size() + posts.size() + comments.size() +
           tags.size() + places.size() + organisations.size();
  }
  uint64_t EdgeCount() const {
    return knows.size() + members.size() + likes.size() + post_tags.size() +
           study_at.size() + work_at.size() +
           posts.size() * 2 +      // creator + forum containment
           comments.size() * 2 +   // creator + replyOf
           persons.size() +        // isLocatedIn
           forums.size();          // moderator
  }
  /// Approximate size of the dataset rendered as CSV (Table 1's "raw").
  uint64_t RawBytes() const;
};

}  // namespace snb
}  // namespace graphbench

#endif  // GRAPHBENCH_SNB_SCHEMA_H_
